"""The paper's evaluation (§5): the figure benchmarks and what they run.

Every ``test_*`` module prints the rows/series of the corresponding
paper table or figure (run pytest with ``-s`` to see them) and attaches
the same data to pytest-benchmark's ``extra_info``.  Shape assertions -
who wins, by what factor, where the crossovers fall - guard against
regressions; absolute numbers are modeled (see DESIGN.md §2).

What they run lives beside them, not in the ``repro`` library:
``harness`` (workload runners, CDFs, regression, figure printers),
``costmodel`` (the paper server's CPU and protocol costs), ``rows``
(the §5.1 microbenchmark rows) and ``fleet`` (the §5.2 synthetic
production fleet).  Import them as ``benchmarks.<module>`` from the
repository root.
"""
