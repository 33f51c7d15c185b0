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

from .admission import AdmissionConfig, AdmissionController, make_admission
from .clients import (
    ARRIVAL_KINDS,
    BurstyArrivals,
    ClientPopulation,
    ClientStats,
    DiurnalArrivals,
    OpMix,
    PoissonArrivals,
    WorkloadSpec,
    ZipfKeys,
    make_arrivals,
)
from .metrics import LatencyStats, MetricsCollector
from .txgen import Mempool

__all__ = [
    "ARRIVAL_KINDS",
    "AdmissionConfig",
    "AdmissionController",
    "BurstyArrivals",
    "ClientPopulation",
    "ClientStats",
    "DiurnalArrivals",
    "LatencyStats",
    "Mempool",
    "MetricsCollector",
    "OpMix",
    "PoissonArrivals",
    "WorkloadSpec",
    "ZipfKeys",
    "make_admission",
    "make_arrivals",
]
