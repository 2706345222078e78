"""Parallel blackboard: the data-centric task engine (paper Sec. II-B, III-B).

Data entries ``{type, size, payload}`` trigger knowledge sources
``{sensitivities, operation}``; a control component matches entries to
sensitivities through a hash table, bundles complete input sets into *jobs*
pushed onto an array of individually-locked FIFOs, and a pool of workers
sweeps the FIFOs from random starting points with exponential back-off.
Payload buffers are ref-counted: writable only while the count is 1, freed
when the last consumer finishes — which is what lets the blackboard double
as the temporary storage medium that frees the VMPI stream buffers.

Two execution modes:

* :class:`~repro.blackboard.workers.ThreadPool` — real ``threading`` workers
  (the paper's Pthread engine) for standalone use;
* inline (:meth:`~repro.blackboard.board.Blackboard.run_until_idle`) —
  deterministic single-threaded drain, used inside the simulated analyzer
  where CPU cost is charged to simulated time.
"""
