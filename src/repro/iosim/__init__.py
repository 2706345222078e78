"""Parallel file-system model.

The trace-based baseline tools of Figure 16 are bounded by two shared
resources of a Lustre-class file system: aggregate data bandwidth (striped
over OSTs, with a per-job fair share) and the metadata server (a serialized
queue that every open/create/close traverses).  Both are modelled here; the
SIONlib task-local-file aggregation layer used by Score-P is modelled in
:mod:`repro.iosim.sionlib`.
"""
