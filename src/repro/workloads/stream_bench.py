"""The §VII-A validation workload: STREAM with per-iteration checking.

"We ran the STREAM benchmark intensively on all the CPU cores for the
DRAM cache area.  The STREAM benchmark was modified to compare the
results with the reference data every iteration.  The refresh detector
is always enabled such that the FPGA accesses behind the tRFC time
happen every REFRESH command."

The reproduction runs STREAM's four kernels (copy / scale / add /
triad) through the host iMC on the *command-accurate* shared bus, while
the NVMC protocol agent performs a 4 KB transfer in every refresh
window.  Every kernel iteration is verified against a NumPy reference;
any bus collision raises, any corruption is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ddr.bus import SharedBus
from repro.ddr.device import DRAMDevice
from repro.ddr.imc import IntegratedMemoryController
from repro.ddr.spec import DDR4Spec, NVDIMMC_1600
from repro.errors import ConfigError
from repro.nvmc.agent import NVMCProtocolAgent
from repro.sim import Engine
from repro.units import PAGE_4K, us


@dataclass
class StreamResult:
    """Outcome of one aging run."""

    iterations: int = 0
    kernels_checked: int = 0
    mismatches: int = 0
    collisions: int = 0
    refreshes_detected: int = 0
    device_bytes_moved: int = 0
    false_positives: int = 0
    false_negatives: int = 0

    @property
    def clean(self) -> bool:
        return self.mismatches == 0 and self.collisions == 0


def run_stream_validation(iterations: int = 3,
                          array_elems: int = 256,
                          spec: DDR4Spec = NVDIMMC_1600,
                          respect_windows: bool = True,
                          agent_pages: int = 64,
                          seed: int = 42) -> StreamResult:
    """Run the modified STREAM aging test on the protocol-level stack.

    Three arrays a/b/c of ``array_elems`` float64s live in the DRAM
    cache; the host iMC moves every element through real DDR4 command
    sequences while the agent writes/reads scratch pages during refresh
    windows.  Everything is checked against a NumPy reference.
    ``iterations`` below 1 raises :class:`~repro.errors.ConfigError`:
    a run that checks nothing cannot come out clean.

    NumPy is imported here, so importing :mod:`repro` does not load it:
    STREAM validation is the only code that needs it.
    """
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    import numpy as np

    rng = np.random.default_rng(seed)
    engine = Engine()
    device = DRAMDevice(spec, capacity_bytes=64 * 1024 * 1024)
    bus = SharedBus(spec, device,
                    raise_on_collision=respect_windows)
    imc = IntegratedMemoryController(engine, spec, bus)
    agent = NVMCProtocolAgent(spec, bus, respect_windows=respect_windows)
    imc.start_refresh_process()

    result = StreamResult()
    elem = 8
    stride = array_elems * elem
    base_a, base_b, base_c = 0, stride, 2 * stride
    scratch_base = 16 * stride

    # Initialise a and b via the host path.
    a_ref = rng.random(array_elems)
    b_ref = rng.random(array_elems)
    c_ref = np.zeros(array_elems)
    t = us(1)
    t = imc.host_write(base_a, a_ref.tobytes(), t)
    t = imc.host_write(base_b, b_ref.tobytes(), t)
    t = imc.host_write(base_c, c_ref.tobytes(), t)

    def host_rw_array(base: int, values: np.ndarray, start: int) -> int:
        return imc.host_write(base, values.tobytes(), start)

    def host_read_array(base: int, start: int) -> tuple[np.ndarray, int]:
        data, end = imc.host_read(base, stride, start)
        return np.frombuffer(data, dtype=np.float64).copy(), end

    scalar = 3.0
    scratch = {}
    for iteration in range(iterations):
        # Keep the device side busy: one 4 KB page per refresh window.
        for i in range(agent_pages // max(1, iterations)):
            page = (iteration * 131 + i) % 64
            payload = bytes([(iteration + page) % 256]) * PAGE_4K
            agent.queue_write(scratch_base + page * PAGE_4K, payload)
            scratch[page] = payload

        # copy: c = a
        values, t = host_read_array(base_a, t + us(1))
        t = host_rw_array(base_c, values, t)
        c_ref = a_ref.copy()
        # scale: b = scalar * c
        values, t = host_read_array(base_c, t + us(1))
        t = host_rw_array(base_b, scalar * values, t)
        b_ref = scalar * c_ref
        # add: c = a + b
        va, t = host_read_array(base_a, t + us(1))
        vb, t = host_read_array(base_b, t + us(1))
        t = host_rw_array(base_c, va + vb, t)
        c_ref = a_ref + b_ref
        # triad: a = b + scalar * c
        vb, t = host_read_array(base_b, t + us(1))
        vc, t = host_read_array(base_c, t + us(1))
        t = host_rw_array(base_a, vb + scalar * vc, t)
        a_ref = b_ref + scalar * c_ref

        # Per-iteration verification against the references.
        engine.run(until=t)
        for base, ref in ((base_a, a_ref), (base_b, b_ref), (base_c, c_ref)):
            readback, t = host_read_array(base, t + us(1))
            result.kernels_checked += 1
            if not np.array_equal(readback, ref):
                result.mismatches += 1
        result.iterations += 1

    # Drain remaining agent work, then audit its scratch pages too.
    engine.run(until=t + us(2000))
    for page, payload in scratch.items():
        if device.peek(scratch_base + page * PAGE_4K, PAGE_4K) != payload:
            result.mismatches += 1

    result.collisions = bus.collision_count
    result.refreshes_detected = len(agent.detector.detections)
    result.device_bytes_moved = agent.stats.bytes_written
    result.false_positives = agent.detector.false_positives
    result.false_negatives = agent.detector.false_negatives
    return result
