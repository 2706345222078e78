"""Core public API: online coupling sessions and tool comparisons.

:class:`~repro.core.session.CouplingSession` is the paper's user story —
"a user launching multiple instrumented applications gets a dedicated
report with full details of each program's behaviour, briefly after
execution ends"::

    from repro import CouplingSession
    from repro.apps import nas_kernel

    session = CouplingSession()
    session.add_application(nas_kernel("CG", 128, "C"))
    session.set_analyzer(ratio=1.0)
    result = session.run()
    print(result.report.render())

:mod:`~repro.core.comparison` runs the same application under the baseline
tool models (Figure 16).
"""
