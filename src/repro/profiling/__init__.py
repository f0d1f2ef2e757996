"""Runtime profiling over the virtual clock (the pyinstrument substitute)."""

from repro.profiling.report import BreakdownReport, format_breakdown_table

__all__ = ["BreakdownReport", "format_breakdown_table"]
