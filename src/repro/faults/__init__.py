"""Fault injection: deterministic failure schedules for chaos testing.

* :mod:`~repro.faults.plan` — :class:`FaultPlan` / :class:`FaultSpec`:
  declarative, JSON-serializable fault schedules in virtual time.
* :mod:`~repro.faults.injector` — :class:`FaultInjector`: arms a plan
  against a running world, journals every fault applied, and drives the
  failover machinery (stream endpoint remapping, degraded collectives).

An empty plan is free: attaching it schedules nothing and the simulation
stays bit-identical to an un-attached run.
"""

from repro.faults.plan import make_plan

__all__ = ["make_plan"]
