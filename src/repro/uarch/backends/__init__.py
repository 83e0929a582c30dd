"""Legacy package: see :mod:`repro.uarch.backends.reference`."""
