"""Extension — the operating costs of the window mechanism.

Two costs the paper leaves implicit, quantified:

* **Refresh power** — device windows are bought with REF commands;
  watts scale linearly with the rate, so the watt-per-MiB/s of window
  bandwidth is a constant of the design.
* **Endurance** — the same windows throttle NAND programs: at the
  PoC's 58.3 MB/s uncached-write ceiling the 128 GB SLC Z-NAND wears
  out only after ~3.4 years of *continuous* writes (decades at real
  duty cycles).  The mechanism bounds its own wear.

The experiment checks both as claims on its record.
"""

from __future__ import annotations

from repro.analysis.results import ExperimentRecord
from repro.ddr.power import power_sweep
from repro.ddr.spec import NVDIMMC_1600
from repro.nand.endurance import paper_device_lifetime, \
    project_lifetime_years
from repro.nand.spec import ZNAND_64GB
from repro.units import gb


def run() -> ExperimentRecord:
    record = ExperimentRecord(
        "power_endurance", "Watts and wear of the tREFI knob")

    rows = power_sweep(NVDIMMC_1600)
    base = rows[0]
    quad = rows[2]
    record.add("refresh power @ tREFI", "W", None, base.power_w)
    record.add("refresh power @ tREFI4", "W", None, quad.power_w)
    power_ratio = quad.power_w / base.power_w
    record.add("power ratio tREFI4/tREFI", "x", 4.0, power_ratio)
    record.add("watts per MiB/s of window bandwidth", "W", None,
               base.power_w / base.device_window_mib_s)

    life = paper_device_lifetime()
    record.add("continuous-write lifetime @ 58.3 MB/s", "years", None,
               life)
    duty10 = project_lifetime_years(ZNAND_64GB, 2 * gb(64),
                                    58.3 * 0.10, waf=1.1)
    record.add("lifetime at 10% write duty", "years", None, duty10)
    # Faster refresh doubles the write ceiling and halves the lifetime:
    ceiling2 = project_lifetime_years(ZNAND_64GB, 2 * gb(64),
                                      2 * 58.3, waf=1.1)
    record.add("lifetime at the tREFI2 write ceiling", "years", None,
               ceiling2)
    record.note("the window mechanism throttles its own wear: the NAND "
                "cannot be written faster than refreshes allow")
    record.claim("refresh power is linear in the rate: tREFI4/tREFI "
                 "within 0.05 of 4x", abs(power_ratio - 4.0) < 0.05)
    record.claim("refresh power at tREFI4 stays below 1 W",
                 quad.power_w < 1.0)
    record.claim("continuous writes at 58.3 MB/s last 2.5-5 years "
                 "(~3.4)", 2.5 <= life <= 5.0)
    record.claim("a 10 % write duty lasts > 5x the continuous lifetime",
                 duty10 > 5 * life)
    return record
