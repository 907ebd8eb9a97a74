"""NumPy's seeded uniform streams, one row per seed, computed for all rows at once.

``uniform_rows(seeds, scale, size)`` equals

    np.stack([np.random.default_rng(s).uniform(-scale, scale, size) for s in seeds])

bit for bit, without building a generator per seed.  It follows NumPy's own
chain (NEP 19): ``SeedSequence`` hashes the seed into a 4-word pool and
``generate_state(4, uint64)`` expands it; ``PCG64`` seeds its 128-bit LCG
from those words; each draw is one LCG step, the XSL-RR output (O'Neill,
"PCG", HMC-CS-2014-0905) and ``(u64 >> 11) * 2**-53``.  The 128-bit
products run in 32-bit limbs on ``uint64`` arrays.

A seed below 2**64 has one or two uint32 entropy words, which mix exactly like
the zero-padded 4-word pool, so one path covers every such seed.
"""

from __future__ import annotations

import operator

import numpy as np

_U32 = np.uint32
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)

# SeedSequence constants (O'Neill's seed_seq_fe).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_POOL = 4

#: The PCG64 multiplier, as (high, low) 64-bit words.
_PCG_MULT = (_U64(0x2360ED051FC65DA4), _U64(0x4385DF649FCCF645))


def _hash_constants(init: int, mult: int, n: int) -> list:
    """The (xor, multiply) constants of ``n`` successive hash calls: each
    call xors the running constant, advances it and multiplies by the new
    value.  They never depend on the data."""
    out = []
    for _ in range(n):
        nxt = (init * mult) & 0xFFFFFFFF
        out.append((_U32(init), _U32(nxt)))
        init = nxt
    return out


# mix_entropy hashes each pool word once, then every ordered pair (src, dst).
_MIX_CONSTS = _hash_constants(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
# generate_state(4, uint64) draws 8 uint32 words.
_STATE_CONSTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hash(value, consts):
    xor, mult = consts
    value = (value ^ xor) * mult
    return value ^ (value >> _U32(16))


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _U32(16))


def _pool(seeds):
    """SeedSequence pool of each seed, as 4 uint32 arrays."""
    words = [(seeds & _LOW32).astype(_U32), (seeds >> _U64(32)).astype(_U32)]
    words += [np.zeros_like(words[0])] * (_POOL - len(words))
    consts = iter(_MIX_CONSTS)
    pool = [_hash(w, next(consts)) for w in words]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], next(consts)))
    return pool


def _state_words(pool):
    """``generate_state(4, uint64)`` of each pool, as 4 uint64 arrays."""
    out32 = [_hash(pool[i % _POOL], c).astype(_U64) for i, c in enumerate(_STATE_CONSTS)]
    return [lo | (hi << _U64(32)) for lo, hi in zip(out32[::2], out32[1::2])]


def _mulhi(a, b):
    """High 64 bits of the 128-bit product of uint64 ``a`` and ``b``."""
    a0, a1 = a & _LOW32, a >> _U64(32)
    b0, b1 = b & _LOW32, b >> _U64(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))


def _add(hi, lo, b_hi, b_lo):
    """128-bit sum of (hi, lo) and (b_hi, b_lo), mod 2**128."""
    new_lo = lo + b_lo
    return hi + b_hi + (new_lo < lo).astype(_U64), new_lo


def _step(hi, lo, inc):
    """One LCG step ``state * mult + inc`` mod 2**128."""
    m_hi, m_lo = _PCG_MULT
    return _add(_mulhi(lo, m_lo) + hi * m_lo + lo * m_hi, lo * m_lo, *inc)


def _as_seeds(seeds) -> np.ndarray:
    # Python ints are checked as such: numpy may turn large ones into floats.
    s = seeds if isinstance(seeds, np.ndarray) else np.array(seeds, dtype=object)
    if s.dtype.kind not in "iu":
        values = [operator.index(v) for v in s.flat]
        if not all(0 <= v < 2**64 for v in values):
            raise ValueError("seeds must lie in [0, 2**64)")
        return np.array(values, dtype=_U64).reshape(s.shape)
    if s.dtype.kind == "i" and np.any(s < 0):
        raise ValueError("seeds must lie in [0, 2**64)")
    return s.astype(_U64)


def uniform_rows(seeds, scale: float, size: int) -> np.ndarray:
    """``default_rng(s).uniform(-scale, scale, size)`` for every seed ``s``.

    ``seeds`` is an integer array of any shape with entries in [0, 2**64);
    the result has shape ``seeds.shape + (size,)``.
    """
    low = -float(scale)
    span = float(scale) - low
    if not np.isfinite(span):
        raise OverflowError("High - low range exceeds valid bounds")
    s = _as_seeds(seeds)
    seed_hi, seed_lo, seq_hi, seq_lo = _state_words(_pool(s.ravel()))
    inc = ((seq_hi << _U64(1)) | (seq_lo >> _U64(63)), (seq_lo << _U64(1)) | _U64(1))
    # PCG64 seeding: step from state 0, add the seed words, step again.
    zero = np.zeros_like(seed_hi)
    state = _step(*_add(*_step(zero, zero, inc), seed_hi, seed_lo), inc)
    draws = np.empty((size, s.size))
    for k in range(size):
        state = hi, lo = _step(*state, inc)
        # XSL-RR: rotate hi ^ lo right by the top 6 bits of the state.
        x, rot = hi ^ lo, hi >> _U64(58)
        x = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
        draws[k] = (x >> _U64(11)).astype(float) * 2.0**-53
    return (low + span * draws.T).reshape(s.shape + (size,))
