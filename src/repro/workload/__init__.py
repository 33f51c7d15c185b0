"""Workload generation and measurement.

* :mod:`repro.workload.txgen` — the saturating per-replica mempool that
  fills every block proposal of the consensus figures.
* :mod:`repro.workload.metrics` — commit-side measurement: throughput
  (committed transactions per second) and latency ("the time taken by a
  transaction to be committed from the moment it is proposed", §VI-A).
* :mod:`repro.workload.clients` — end-to-end client populations: open- and
  closed-loop traffic (Poisson/bursty/diurnal arrivals, Zipf-skewed
  SET/GET/DEL/CAS mixes) driving the :mod:`repro.smr` service, with
  client-observed latency percentiles.
* :mod:`repro.workload.admission` — mempool admission control and
  backpressure: bounded queues, reject/shed policies, per-client caps.
"""
