"""``python -m repro.telemetry``: the ops CLI (:func:`repro.telemetry.runtime.main`).

The entry point lives here rather than under ``runtime.py``'s own
``__main__`` check because importing the package already imports that
module; ``python -m repro.telemetry.runtime`` would run it a second time.
"""

from .runtime import main

if __name__ == "__main__":
    raise SystemExit(main())
