import json
import warnings

import numpy as np
import pytest

import ifcbounds as ifc
from ifcbounds.errors import (
    LabelOverlap,
    NonPositiveDiagonal,
    NonSquare,
    NotHermitian,
    NotPSD,
    NotUnitDiagonal,
    SchemaError,
)
from ifcbounds.model import make_joint

from support import sample_interior_sigma


def test_single_user_channel_is_valid():
    ch = ifc.validate_channel([[1.0]])
    assert ch.K == 1
    assert ch.entries[0, 0] == 1.0


def test_z_channel_is_valid():
    ch = ifc.validate_channel([[1.0, 0.5], [0.0, 2.0]])
    assert ch.K == 2


def test_rectangular_rejected():
    with pytest.raises(NonSquare):
        ifc.validate_channel([[1.0, 0.0]])


def test_imaginary_diagonal_rejected():
    H = np.array([[1.0, 0.0], [0.0, 1.0 + 0.1j]])
    with pytest.raises(NonPositiveDiagonal):
        ifc.validate_channel(H)


def test_nonpositive_diagonal_rejected():
    with pytest.raises(NonPositiveDiagonal):
        ifc.validate_channel([[1.0, 0.3], [0.1, 0.0]])


def test_nonfinite_rejected():
    from ifcbounds.errors import NonFinite
    with pytest.raises(NonFinite):
        ifc.validate_channel([[1.0, np.inf], [0.0, 1.0]])


def test_gains_whose_output_power_overflows_rejected():
    from ifcbounds.errors import NonFinite
    ifc.validate_channel([[1.0, 1e77], [0.0, 1.0]])  # (1 + 1e154)^2 is still finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for H in ([[1.0, 2e77], [0.0, 1.0]], [[1.0, 1e300j], [0.0, 1e300]]):
            with pytest.raises(NonFinite, match="overflows"):
                ifc.validate_channel(H)
            with pytest.raises(SchemaError, match="^/H: "):
                ifc.parse_channel_spec({"K": 2, "H": [[[h.real, h.imag] for h in map(complex, row)]
                                                      for row in H]})


def test_channel_entries_read_only():
    ch = ifc.validate_channel([[1.0, 0.5], [0.0, 2.0]])
    with pytest.raises(ValueError):
        ch.entries[0, 1] = 9.0


def test_identity_noise_valid_any_size():
    for k in (1, 2, 5):
        assert ifc.identity_noise(k).K == k


def test_overcorrelated_noise_rejected():
    with pytest.raises(NotPSD):
        ifc.validate_noise_correlation([[1.0, 1.2], [1.2, 1.0]])


def test_non_hermitian_noise_rejected():
    with pytest.raises(NotHermitian):
        ifc.validate_noise_correlation([[1.0, 0.5], [0.2, 1.0]])


def test_non_unit_diagonal_rejected():
    with pytest.raises(NotUnitDiagonal):
        ifc.validate_noise_correlation([[2.0, 0.0], [0.0, 1.0]])


def test_row_vector_psd_boundary():
    # third row correlations (0.6, 0.6) against an identity leading block:
    # 0.6^2 + 0.6^2 = 0.72 <= 1, so this is PSD (and would fail at 0.72 > 1)
    s = np.eye(3, dtype=complex)
    s[2, 0] = s[0, 2] = 0.6
    s[2, 1] = s[1, 2] = 0.6
    nc = ifc.validate_noise_correlation(s)
    assert nc.K == 3
    s2 = np.eye(3, dtype=complex)
    s2[2, 0] = s2[0, 2] = 0.8
    s2[2, 1] = s2[1, 2] = 0.8
    with pytest.raises(NotPSD):
        ifc.validate_noise_correlation(s2)


def test_duplicate_joint_labels_rejected():
    with pytest.raises(LabelOverlap):
        ifc.JointGaussian(("X1", "X1"), root=np.eye(2))
    with pytest.raises(LabelOverlap):
        make_joint(["Y1", "X2", "Y1"], np.eye(3))


def test_a_covariance_is_not_read_as_a_root():
    # the root is keyword-only, so a law built from a covariance goes through
    # make_joint, which stores a square root of it
    cov = np.array([[1.0, 1.0], [1.0, 2.0]])
    with pytest.raises(TypeError):
        ifc.JointGaussian(("X1", "Y1"), cov)
    j = make_joint(("X1", "Y1"), cov)
    assert np.allclose(j.root @ j.root.conj().T, cov, rtol=0, atol=1e-15)
    assert np.allclose(j.cov, cov, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# serialization

def test_channel_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    H = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    H[np.diag_indices(3)] = np.abs(np.diagonal(H)) + 0.5
    ch = ifc.validate_channel(H)
    back = ifc.parse_channel_spec(ifc.serialize_channel(ch))
    assert isinstance(back, ifc.ChannelMatrix)
    assert np.array_equal(back.entries, ch.entries)


def test_parse_z_channel_spec():
    doc = {"K": 2, "H": [[[1, 0], [0.5, 0]], [[0, 0], [2, 0]]]}
    ch = ifc.parse_channel_spec(json.dumps(doc))
    assert np.array_equal(ch.entries, np.array([[1.0, 0.5], [0.0, 2.0]]))


def test_parse_missing_k_pointer():
    with pytest.raises(SchemaError) as exc:
        ifc.parse_channel_spec('{"H": [[1]]}')
    assert "/K" in str(exc.value)


def test_parse_bad_entry_pointer():
    with pytest.raises(SchemaError) as exc:
        ifc.parse_channel_spec('{"K": 1, "H": [["x"]]}')
    assert "/H/0/0" in str(exc.value)


def test_parse_reads_channels_only():
    # a Sigma key is ignored like any unknown key; without H there is no channel
    ch = ifc.parse_channel_spec('{"K": 1, "H": [[2]], "Sigma": [[1]]}')
    assert isinstance(ch, ifc.ChannelMatrix)
    assert np.array_equal(ch.entries, [[2.0]])
    with pytest.raises(SchemaError) as exc:
        ifc.parse_channel_spec({"K": 2, "Sigma": [[1.0, 0.3], [0.3, 1.0]]})
    assert exc.value.pointer == "/H"


def test_parse_rejects_bool_dimension():
    with pytest.raises(SchemaError):
        ifc.parse_channel_spec('{"K": true, "H": [[1]]}')


def test_parse_rejects_future_schema():
    with pytest.raises(SchemaError):
        ifc.parse_channel_spec('{"schema_version": 2, "K": 1, "H": [[1]]}')
    with pytest.raises(SchemaError, match="schema version"):
        ifc.parse_channel_spec('{"schema_version": true, "K": 1, "H": [[1]]}')


@pytest.mark.parametrize("text", [b"\xff", "[" * 100_000, '{"K": ' + "9" * 5000 + "}",
                                  b'{"K": 1, "H": [[1]]'])
def test_parse_undecodable_text_is_a_schema_error(text):
    with pytest.raises(SchemaError, match="invalid JSON"):
        ifc.parse_channel_spec(text)


def test_parse_ignores_extra_keys():
    ch = ifc.parse_channel_spec('{"K": 1, "H": [[1]], "provenance": {"mode": "z"}}')
    assert ch.K == 1


# ---------------------------------------------------------------------------
# the eigenvalue test accepts exactly the couplings buildable row by row:
# appending row correlations rho to a valid leading block keeps the matrix
# PSD iff rho^H pinv(S_lead) rho <= 1 and rho lies in range(S_lead)

def _recursive_accept(s: np.ndarray, tol: float = 1e-9) -> bool:
    K = s.shape[0]
    for k in range(2, K + 1):
        lead = s[:k - 1, :k - 1]
        rho = s[:k - 1, k - 1]
        w, v = np.linalg.eigh(lead)
        good = w > 1e-12 * max(1.0, float(w[-1]))
        proj = v[:, good] @ (v[:, good].conj().T @ rho)
        if np.linalg.norm(proj - rho) > tol:
            return False
        quad = float(np.real(rho.conj() @ (v[:, good] / w[good]) @ (v[:, good].conj().T @ rho)))
        if quad > 1.0 + tol:
            return False
    return True


def test_psd_acceptance_matches_recursive_row_constraint():
    rng = np.random.default_rng(2024)
    n_checked = 0
    for trial in range(1000):
        K = int(rng.integers(2, 6))
        if trial % 2 == 0:
            s = sample_interior_sigma(rng, K).sigma.copy()
        else:
            m = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
            s = (m + m.conj().T) / 2
            np.fill_diagonal(s, 1.0)
        eigmin = float(np.linalg.eigvalsh(s)[0])
        if abs(eigmin) < 1e-8:
            continue  # knife edge: both routes are tolerance-limited there
        accepted = True
        try:
            ifc.validate_noise_correlation(s)
        except NotPSD:
            accepted = False
        assert accepted == _recursive_accept(s), (trial, eigmin)
        n_checked += 1
    assert n_checked > 900
