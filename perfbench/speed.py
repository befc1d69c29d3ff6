"""Host-speed probe: converts measured seconds to seconds at a reference speed.

On the shared 2-vCPU VM the benchmark was defined on, the host switches
between a fast and a slow state within seconds: the same fixed work takes
1.6 to 1.9 times as long in the slow state, on either vCPU, and process CPU
time grows with wall time, so it is contention, not preemption. How much of
a minute the host spends slow drifts from minute to minute, by more than the
benchmark's bounds; medians within a run cannot remove that.

So the timed phase runs a probe, a short fixed piece of work that is not
crowdtag code, between the pieces it times: before and after each set-up,
between the pipeline's stages, and around each re-run. Each piece is
converted with the probes on either side of it,

    seconds * reference / mean(probe before, probe after)

that is, seconds at the host speed where the probe takes ``reference``, and
a pipeline is the sum of its converted stages. A slower program still reads
slower; a slower host does not.

The slow state does not slow all work alike, so there are two probes.
``probe`` mixes what set-up and the stages spend their time on: JSON encode
and parse of float rows (the graph artifact) and formatted strings hashed
with SHA-256 (prompts and cache keys), run with the garbage collector off so
its time does not depend on how many objects the pipeline keeps. A re-run
only hashes the stages' input and output files, which the slow state barely
touches; ``hash_probe`` hashes a fixed buffer instead. Over 90 s of
re-runs in one process, the medians of 15 varied by 4.3% as measured, by
1.9% converted with ``hash_probe`` and by 7.2% converted with ``probe``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time

# Probe times on that VM in its fast state.
REFERENCE_S = 0.03
HASH_REFERENCE_S = 0.0075

_ROWS = [[round((i * 37 + j * 11) % 1000 / 997.0 - 0.5, 6) for j in range(32)] for i in range(1500)]


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    gc.disable()
    try:
        start = time.perf_counter()
        rows = json.loads(json.dumps({"rows": _ROWS}))["rows"]
        keys = {hashlib.sha256(f"n{i} {r[0]:.4f}".encode()).hexdigest() for i, r in enumerate(rows)}
        seconds = time.perf_counter() - start
        assert len(keys) == len(_ROWS)
        return seconds
    finally:
        gc.enable()


_BUFFER = bytes(range(256)) * (1 << 12)  # 1 MiB


def hash_probe() -> float:
    """Seconds a SHA-256 of 8 MiB (a fixed 1 MiB buffer, 8 times) takes now."""
    start = time.perf_counter()
    digest = hashlib.sha256()
    for _ in range(8):
        digest.update(_BUFFER)
    digest.digest()
    return time.perf_counter() - start


def at_reference(seconds: float, before: float, after: float, reference: float) -> float:
    """``seconds`` measured between probes that took ``before`` and ``after``,
    at the host speed where the probe takes ``reference``."""
    return seconds * reference / ((before + after) / 2.0)
