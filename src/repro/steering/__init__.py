"""Adaptive runtime steering: the observe → decide → act control loop.

PR 2's :class:`~repro.telemetry.monitor.HealthMonitor` *detects* stream
stalls, backlog growth and imbalance; PR 5's codec layer can *reduce* the
stream volume; PR 3's failover primitives can *re-route* writers.  This
package closes the loop: a
:class:`~repro.steering.controller.SteeringController` subscribes to
health alerts and acts online inside the simulation, under a declarative
JSON-serializable :class:`SteeringPolicy` — escalating/relaxing the
reduction chain with hysteresis, autoscaling the analyzer's modelled
worker pool, and remapping writers across analyzer ranks.  Every decision
is journalled as a :class:`~repro.steering.controller.SteeringDecision`
with its triggering alert and before/after flow latencies.
"""

from repro.steering.policy import SteeringPolicy

__all__ = ["SteeringPolicy"]
