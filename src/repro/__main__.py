"""``python -m repro <verb>`` — see :mod:`repro.cli`."""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
