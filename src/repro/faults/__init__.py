"""Deterministic fault injection and resilience campaigns.

The paper's robustness story — the battery-backed power-loss drain that
ignores tRFC serialization (§V-C), the one-command-deep CP protocol
(§IV-C), grown-bad-block handling in the FTL — is only credible if it
survives being *attacked*.  This package injects faults at adversarial
instants and drives the resilience mechanisms the rest of the stack
implements:

* :mod:`repro.faults.clock` — :class:`FaultClock`, the sim-time- and
  count-scheduled trigger that hook sites across the engine, NVMC, NAND
  controller, and FTL consult; firing raises
  :class:`~repro.errors.PowerLossInterrupt`.
* :mod:`repro.faults.injectors` — the injector registry: seeded,
  deterministic fault sources (CA-bus noise bursts, CP command/ack
  corruption and ack drops, DMA partial transfers, NAND program/erase
  failures and uncorrectable-ECC pages, power loss mid-operation).
* :mod:`repro.faults.campaign` — the campaign runner: a deterministic
  (fault x workload) matrix, every cell executed under the
  :mod:`repro.check` sanitizer suite, data integrity verified against a
  shadow copy, losses reported honestly.
* :mod:`repro.faults.report` — the schema-pinned ``FAULTS_*.json``
  report.

Entry point::

    python -m repro faults run [--quick] [--seed N] [--out DIR]
"""

from repro.faults.clock import FaultClock
from repro.faults.injectors import INJECTORS, Injector, injector_names
from repro.faults.campaign import (CampaignResult, CellResult, run_campaign,
                                   campaign_matrix)
from repro.faults.report import SCHEMA, SHAPE

__all__ = [
    "FaultClock",
    "INJECTORS",
    "Injector",
    "injector_names",
    "CampaignResult",
    "CellResult",
    "run_campaign",
    "campaign_matrix",
    "SCHEMA",
    "SHAPE",
]
