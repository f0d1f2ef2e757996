"""Runtime profiling over the virtual clock (the pyinstrument substitute)."""
