"""Baseline performance-tool models (the comparators of Figure 16).

Each baseline is a PMPI interceptor reproducing the documented data path of
the corresponding tool:

* :class:`~repro.baselines.mpip.MPIPInterceptor` — mpiP-style purely-online
  statistical aggregation, reduced at MPI_Finalize;
* :class:`~repro.baselines.scorep.ScorePProfileInterceptor` — Score-P
  runtime profile: per-call profile update, one profile file per rank at
  finalize (a metadata storm at scale);
* :class:`~repro.baselines.scorep.ScorePTraceInterceptor` — Score-P OTF2
  tracing over SIONlib: buffered event records flushed through the shared
  parallel file system;
* :class:`~repro.baselines.scalasca.ScalascaInterceptor` — Scalasca 1.x
  runtime summarization plus a post-mortem phase (not counted in the
  init-finalize window, as in the paper's measurements).

All tools charge their per-call CPU overheads to the application timeline;
file-based tools share the job's :class:`~repro.iosim.filesystem.ParallelFS`.

One modelling note: one-time costs (file creates, final report writes) are
multiplied by ``amortize_fixed`` — the ratio of simulated to official
iterations — so that relative overhead computed over a shortened run equals
the overhead of the full-length run (rate-proportional costs scale by
construction; fixed costs must be scaled explicitly).
"""
