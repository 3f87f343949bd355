"""Domain types for K-user Gaussian interference channels.

A channel in standard form is a K x K complex matrix H: row i collects the
gains seen by receiver i, so ``Y_i = sum_k H[i,k] X_k + Z_i`` with unit-power
inputs and unit-variance circularly-symmetric noise.  Direct gains ``H[k,k]``
must be real and strictly positive; any phase there has to be rotated out by
the caller before building the channel (no silent rotation happens here).

``NoiseCorrelation`` is a unit-diagonal Hermitian PSD matrix giving the joint
law of the receiver noises.  Bounds are free to choose it because capacity
only depends on the noise marginals, so no channel document carries it.

All rates everywhere in the package are bits (log base 2) per complex use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    LabelOverlap,
    NonFinite,
    NonPositiveDiagonal,
    NonSquare,
    NotHermitian,
    NotPSD,
    NotUnitDiagonal,
    SchemaError,
)

SCHEMA_VERSION = 1

#: eigenvalues of a covariance may dip this far below zero before rejection
PSD_EIG_TOL = 1e-10

#: fp dust threshold: imaginary parts / diagonal offsets below this are zeroed
_DUST = 1e-12


def _as_complex_matrix(raw: Any, name: str) -> np.ndarray:
    arr = np.array(raw, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise NonSquare(f"{name} must be a nonempty square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise NonFinite(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Validated K x K complex channel matrix in standard form."""

    entries: np.ndarray = field(repr=False)

    @property
    def K(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChannelMatrix) and np.array_equal(self.entries, other.entries)

    def __repr__(self) -> str:
        return f"ChannelMatrix(K={self.K})"

    def to_spec_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "K": self.K,
            "H": _to_pairs(self.entries),
        }


@dataclass(frozen=True, eq=False)
class NoiseCorrelation:
    """Unit-diagonal Hermitian PSD noise coupling across receivers."""

    sigma: np.ndarray = field(repr=False)

    @property
    def K(self) -> int:
        return self.sigma.shape[0]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NoiseCorrelation) and np.array_equal(self.sigma, other.sigma)

    def __repr__(self) -> str:
        return f"NoiseCorrelation(K={self.K})"


def validate_channel(raw: Any) -> ChannelMatrix:
    """Build a :class:`ChannelMatrix`, rejecting anything non-standard.

    The diagonal must already be real and strictly positive.  Imaginary
    diagonal dust below ``1e-12`` (relative) is zeroed; anything larger is an
    explicit ``NonPositiveDiagonal`` error rather than a silent phase rotation.
    Gains whose (1 + sum |h_ij|^2)^2 overflows are ``NonFinite``.
    """
    arr = _as_complex_matrix(raw, "H")
    with np.errstate(over="ignore"):
        if not np.isfinite((1.0 + np.sum(arr.real ** 2 + arr.imag ** 2)) ** 2):
            raise NonFinite("H has gains whose output power overflows")
    diag = np.diagonal(arr).copy()
    scale = np.maximum(1.0, np.abs(diag.real))
    if np.any(np.abs(diag.imag) > _DUST * scale):
        raise NonPositiveDiagonal("diagonal gains must be real (phases are not rotated out)")
    if np.any(diag.real <= 0):
        raise NonPositiveDiagonal("diagonal gains must be strictly positive")
    arr = arr.copy()
    np.fill_diagonal(arr, diag.real)
    arr.setflags(write=False)
    return ChannelMatrix(arr)


def validate_noise_correlation(raw: Any) -> NoiseCorrelation:
    """Build a :class:`NoiseCorrelation`.

    Accepts exactly the unit-diagonal Hermitian matrices whose smallest
    eigenvalue is >= -1e-10 (equivalently, those obeying the column-wise
    recursive coupling constraint).  Tiny diagonal / Hermitian fp dust is
    canonicalized away after the checks pass.
    """
    arr = _as_complex_matrix(raw, "Sigma")
    if np.max(np.abs(arr - arr.conj().T)) > 1e-10:
        raise NotHermitian("Sigma is not Hermitian")
    if np.max(np.abs(np.diagonal(arr) - 1.0)) > _DUST:
        raise NotUnitDiagonal("Sigma must have a unit diagonal")
    arr = (arr + arr.conj().T) / 2.0
    np.fill_diagonal(arr, 1.0)
    w = np.linalg.eigvalsh(arr)
    if w[0] < -PSD_EIG_TOL:
        raise NotPSD(f"Sigma has eigenvalue {w[0]:.3e} below -{PSD_EIG_TOL:.0e}")
    arr.setflags(write=False)
    return NoiseCorrelation(arr)


def identity_noise(K: int) -> NoiseCorrelation:
    """Independent unit-variance noises."""
    return validate_noise_correlation(np.eye(K))


# ---------------------------------------------------------------------------
# joint Gaussian vectors

@dataclass(frozen=True, eq=False)
class JointGaussian:
    """A zero-mean circularly-symmetric complex Gaussian vector.

    ``labels`` names the coordinates ("X1", "Y2", "G3", ...) and ``cov`` is the
    Hermitian PSD matrix ``E[v v^H]`` in label order.
    """

    labels: tuple
    cov: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise LabelOverlap(f"duplicate labels: {self.labels}")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def indices(self, names: Iterable[str]) -> list:
        lookup = {lab: i for i, lab in enumerate(self.labels)}
        out = []
        for name in names:
            if name not in lookup:
                raise KeyError(f"label {name!r} not in joint ({self.labels})")
            out.append(lookup[name])
        return out

    def __repr__(self) -> str:
        return f"JointGaussian(labels={self.labels})"


def make_joint(labels: Sequence[str], cov: np.ndarray) -> JointGaussian:
    """Validate and freeze a joint Gaussian (Hermitian, eigenvalues >= -1e-10)."""
    arr = np.array(cov, dtype=complex)
    n = len(labels)
    if arr.shape != (n, n):
        raise NonSquare(f"covariance shape {arr.shape} does not match {n} labels")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise NonFinite("covariance contains non-finite entries")
    if np.max(np.abs(arr - arr.conj().T)) > 1e-9 * max(1.0, float(np.max(np.abs(arr)))):
        raise NotHermitian("covariance is not Hermitian")
    arr = (arr + arr.conj().T) / 2.0
    w = np.linalg.eigvalsh(arr)
    if w[0] < -PSD_EIG_TOL * max(1.0, float(w[-1])):
        raise NotPSD(f"covariance eigenvalue {w[0]:.3e} is negative")
    arr.setflags(write=False)
    return JointGaussian(tuple(labels), arr)


# ---------------------------------------------------------------------------
# bound reporting types

@dataclass(frozen=True)
class RateInequality:
    """``sum of R_u over u in subset <= value_bits``.

    ``family`` tags which bound family produced the retained (smallest) value
    and ``witness`` records the permutation plus the noise coupling or genie
    correlations achieving it.
    """

    subset: tuple
    value_bits: float
    family: str
    witness: Mapping[str, Any]

    def to_json_dict(self) -> dict:
        w: dict = {"perm": list(self.witness["perm"])}
        if "sigma" in self.witness:
            w["sigma"] = _to_pairs(self.witness["sigma"])
        if "rhos" in self.witness:
            w["rhos"] = _to_pairs(self.witness["rhos"])
        return {
            "subset": list(self.subset),
            "family": self.family,
            "value_bits": self.value_bits,
            "witness": w,
        }


@dataclass(frozen=True)
class BoundReport:
    """Everything `region` computed for one channel."""

    channel: ChannelMatrix
    inequalities: tuple
    sum_rate_upper: float
    per_family_sum_rate: Mapping[str, float]
    lower_bounds: Mapping[str, float]
    config: Mapping[str, Any]
    consistent: bool
    warnings: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "channel": self.channel.to_spec_dict(),
            "config": dict(self.config),
            "inequalities": [q.to_json_dict() for q in self.inequalities],
            "sum_rate_upper_bits": self.sum_rate_upper,
            "per_family_sum_rate_bits": dict(self.per_family_sum_rate),
            "lower_bounds_bits": dict(self.lower_bounds),
            "consistent": self.consistent,
            "warnings": list(self.warnings),
        }


CERTIFIED = "CERTIFIED"
BOUND_ONLY = "BOUND_ONLY"

PATH_Z = "Z_THEOREM2"
PATH_DEGRADED = "DEGRADED"
PATH_MAC = "MAC_THEOREM3"
PATH_NUMERIC = "NUMERIC_MATCH"


@dataclass(frozen=True)
class Certificate:
    """Outcome of a sum-capacity certification attempt.

    ``status`` is CERTIFIED only when upper and lower bounds agree to within
    1e-9 bits; ``gap_bits`` is upper minus lower as computed (tiny negative
    values are fp noise from the two independent evaluations).
    """

    status: str
    path: Optional[str]
    gap_bits: float
    upper_bits: float
    lower_bits: float
    details: tuple
    warnings: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "status": self.status,
            "path": self.path,
            "gap_bits": self.gap_bits,
            "upper_bits": self.upper_bits,
            "lower_bits": self.lower_bits,
            "details": list(self.details),
            "warnings": list(self.warnings),
        }


# ---------------------------------------------------------------------------
# JSON serialization: complex numbers travel as [re, im] pairs so that
# serialize -> parse round trips are bit exact.

def _to_pairs(values: Any) -> list:
    """Complex scalars as [re, im] lists, nested as in values (a matrix, a
    vector or a tuple of correlations)."""
    arr = np.asarray(values, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def serialize_channel(ch: ChannelMatrix) -> str:
    return json.dumps(ch.to_spec_dict(), indent=2) + "\n"


def _decode_json(text: Union[str, bytes]) -> Any:
    """The JSON document in text (bytes must be UTF-8).  Every way decoding
    fails is a SchemaError: bad syntax or UTF-8, an integer past Python's
    digit limit, or nesting too deep for the decoder."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError("", f"invalid JSON: {exc}") from exc


def _want_number(node: Any, ptr: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise SchemaError(ptr, f"expected a number, got {type(node).__name__}")
    try:
        return float(node)
    except OverflowError:  # an integer literal past the float range
        raise SchemaError(ptr, "number is too large for a float") from None


def _want_pair(node: Any, ptr: str) -> complex:
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return complex(_want_number(node, ptr), 0.0)
    if not isinstance(node, list) or len(node) != 2:
        raise SchemaError(ptr, "expected a number or [re, im] pair")
    return complex(_want_number(node[0], ptr + "/0"), _want_number(node[1], ptr + "/1"))


def _want_vector(node: Any, ptr: str, want=_want_pair) -> np.ndarray:
    """Nonempty array whose entries each pass ``want`` (complex by default)."""
    if not isinstance(node, list) or not node:
        raise SchemaError(ptr, "expected a nonempty array")
    return np.array([want(v, f"{ptr}/{i}") for i, v in enumerate(node)])


def _want_matrix(node: Any, k: Optional[int], ptr: str) -> np.ndarray:
    """k x k complex matrix; ``k=None`` takes k from the number of rows."""
    if k is None and isinstance(node, list) and node:
        k = len(node)
    if not isinstance(node, list) or len(node) != k:
        raise SchemaError(ptr, f"expected a list of {k or 'one or more'} rows")
    out = np.zeros((k, k), dtype=complex)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != k:
            raise SchemaError(f"{ptr}/{i}", f"expected a row of {k} entries")
        for j, cell in enumerate(row):
            out[i, j] = _want_pair(cell, f"{ptr}/{i}/{j}")
    return out


def parse_channel_spec(doc: Union[str, bytes, Mapping]) -> ChannelMatrix:
    """Parse a channel document (JSON text or a dict): ``K``, ``H`` and an
    optional ``schema_version``.

    Unknown keys (provenance blocks and the like) are ignored.  Errors carry
    a JSON-pointer to the offending location.
    """
    if isinstance(doc, (str, bytes)):
        doc = _decode_json(doc)
    if not isinstance(doc, dict):
        raise SchemaError("", "top-level value must be an object")
    if "schema_version" in doc:
        ver = doc["schema_version"]
        if isinstance(ver, bool) or not isinstance(ver, int) or ver != SCHEMA_VERSION:
            raise SchemaError("/schema_version", f"unsupported schema version {ver!r}")
    if "K" not in doc:
        raise SchemaError("/K", "missing required key")
    k = doc["K"]
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise SchemaError("/K", "K must be a positive integer")
    if "H" not in doc:
        raise SchemaError("/H", "missing required key")
    mat = _want_matrix(doc["H"], k, "/H")
    try:
        return validate_channel(mat)
    except (NonSquare, NonFinite, NonPositiveDiagonal) as exc:
        raise SchemaError("/H", str(exc)) from exc
