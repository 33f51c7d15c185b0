"""Network substrate: message model, latency models, simulator, TCP runtime.

The paper's testbed is 4-continent Alibaba Cloud VMs on 100 Mbps
peer-to-peer links.  This package reproduces that environment two ways:

* :mod:`repro.net.simulator` — a deterministic discrete-event simulator
  with WAN propagation delays and a shared-egress bandwidth model.  All
  benchmark figures are produced here (reproducible, seedable, fast).
* :mod:`repro.net.tcp` — an asyncio runtime that runs the very same
  protocol ``Node`` objects over real sockets, the same latency models
  optionally injected per frame — the "prototype system" flavour of §VI.

Protocols never import either runtime; they are written against the
:class:`repro.net.interfaces.NetworkAPI` abstraction.
"""
