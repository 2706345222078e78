"""Flow-level network and machine model.

Models the two evaluation platforms of the paper (Tera 100 and Curie) as a
set of per-node full-duplex NIC *pipes* plus intra-node memory pipes.  A
message transfer commits bytes to the source node's egress pipe and the
destination node's ingress pipe; it completes when both are done, plus the
inter-node latency.  Contention (many ranks per NIC, many-to-one incast)
emerges from pipe serialization.
"""
