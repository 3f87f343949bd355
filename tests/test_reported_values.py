"""Every reported value is its witness's value (ROADMAP item 18).

Re-scoring a witness through the reference route shows that the witness is
feasible, not that the printed number is its value.  These tests hold each
inequality ``region`` reports to the 50-digit referee of ``tests/support.py``
at the reported witness: no value may sit more than 1e-12 bits below the
referee, which would make it less than the bound it stands for, nor more than
1e-9 bits from it.  The sample is fixed, so a failure names a reproducible
channel: random channels at K = 2-4 and scales 0.5-30, the large-gain family
[[1, g], [0, g]], and Z and many-to-one constructions, all up to gains 10^3.5.
"""

import numpy as np
import pytest

import ifcbounds as ifc

from support import (
    random_channel,
    referee_etw_term,
    referee_kra_term,
    sample_interior_sigma,
)

#: a reported value may sit this far below its referee: round-off, not a looser claim
BELOW = 1e-12

#: and this far from it either way
APART = 1e-9


def _sample():
    rng = np.random.default_rng(1903)
    channels = [random_channel(rng, K, scale)
                for K in (2, 3, 4) for scale in (0.5, 2.0, 8.0, 30.0) for _ in range(2)]
    channels += [ifc.validate_channel(np.array([[1.0, g], [0.0, g]]))
                 for g in 10.0 ** np.arange(0.5, 3.6, 0.5)]
    for top in (1.5, 2.5, 3.5):
        gains = 10.0 ** rng.uniform(0.0, top, 3)
        gains[rng.integers(3)] = 10.0 ** top
        channels.append(ifc.build_z_channel(sample_interior_sigma(rng, 3), gains))
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        channels.append(ifc.many_to_one(v * np.sqrt(0.9 / np.sum(np.abs(v) ** 2)), gains))
    return channels


def _misses(family, referee):
    """(channel index, subset, value - referee) of every reported inequality
    of ``family`` whose value is not backed by its witness."""
    out = []
    for i, ch in enumerate(_sample()):
        for q in ifc.region(ch, families=family).inequalities:
            delta = q.value_bits - referee(ch, q)
            if delta < -BELOW or abs(delta) > APART:
                out.append((i, q.subset, delta))
    return out


def _kra_referee(ch, q):
    return referee_kra_term(ch, ifc.NoiseCorrelation(q.witness["sigma"]),
                            ifc.BoundTerm(q.subset, q.witness["perm"]))


def _etw_referee(ch, q):
    return referee_etw_term(ch, ifc.BoundTerm(q.subset, q.witness["perm"]), q.witness["rhos"])


def test_kra_values_are_their_witnesses_values():
    assert _misses("kra", _kra_referee) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: etw_term_value's Cholesky route "
                                       "cancels eps g^2 of each genie summand")
def test_etw_values_are_their_witnesses_values():
    # [[1, g], [0, g]] at g = 1000: the winning value is 7.2e-7 bits below its referee
    assert _misses("etw", _etw_referee) == []
