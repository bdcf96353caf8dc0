"""Material coefficients, admissibility checks, and decay-estimate constants.

A material couples linear elasticity (rank-4 ``C``), a scalar void-fraction
field (``A``, ``B``, ``b``, ``xi``, rate coefficient ``tau``), and
temperature (``M``, ``aVec``, ``m``, ``aHeat``, conductivity ``K``).  All
coefficient tensors are kept in full (unpacked) form; packed Voigt-style
layouts appear only in files and construction helpers.

Coordinates for the stored-energy quadratic form are scaled so that its
extreme eigenvalues ``mu_m``/``mu_M`` bound the energy density of the raw
fields: symmetric tensors are expanded in an orthonormal basis (diagonal
entries unchanged, off-diagonal pairs carried as sqrt(2) multiples), the
void-gradient slot carries ``sqrt(chi)`` times the gradient, and the last
slot is the void fraction itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np


class NotPositiveDefinite(ValueError):
    """Stored-energy or conductivity form is not positive definite."""


class InfeasibleWindow(ValueError):
    """No (t0, r0) satisfies L <= zeta*t0 + r0 <= zeta*T."""


class NoFeasibleLambda(ValueError):
    """No time weight of a grid is admissible (``measures.admissible_lambdas``)."""


class MaterialFileError(ValueError):
    """Malformed material file."""


# ---------------------------------------------------------------------------
# Packed (Voigt-style) index bookkeeping


def voigt_pairs(dim):
    """Canonical ordering of symmetric index pairs: diagonals first."""
    if dim == 1:
        return [(0, 0)]
    if dim == 2:
        return [(0, 0), (1, 1), (0, 1)]
    if dim == 3:
        return [(0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
    raise ValueError(f"dim must be 1, 2 or 3, got {dim}")


def n_voigt(dim):
    return dim * (dim + 1) // 2


def _voigt_index(dim):
    """The pairs of :func:`voigt_pairs` as index arrays (i, j), and the
    (dim, dim) table of each pair's position, symmetric in (i, j)."""
    i, j = np.array(voigt_pairs(dim)).T
    position = np.empty((dim, dim), dtype=int)
    position[i, j] = position[j, i] = np.arange(i.size)
    return i, j, position


def pack_elasticity(C, dim):
    """Full rank-4 ``C`` -> packed symmetric matrix, canonical pair order."""
    i, j, _ = _voigt_index(dim)
    return C[i[:, None], j[:, None], i, j]


def unpack_elasticity(packed, dim):
    """Packed matrix -> full rank-4 tensor with all symmetries imposed."""
    position = _voigt_index(dim)[2]
    return packed[position[:, :, None, None], position]


def pack_coupling(D, dim):
    """Full ``D[i, j, s]`` (symmetric in i, j) -> packed (n_voigt, dim)."""
    i, j, _ = _voigt_index(dim)
    return D[i, j]


def unpack_coupling(packed, dim):
    return packed[_voigt_index(dim)[2]]


# ---------------------------------------------------------------------------
# Material


def _tensor(name, value, shape):
    arr = np.asarray(value, dtype=float)
    if arr.shape == () and int(np.prod(shape)) == 1:
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Material:
    """Homogeneous coefficient set for the coupled system.

    Optional coupling blocks default to zero.  ``aHeat`` is the
    entropy-temperature coefficient, ``tau`` the void-rate (memory)
    coefficient, ``theta0`` the reference temperature.
    """

    dim: int
    C: np.ndarray
    A: np.ndarray
    K: np.ndarray
    rho: float
    chi: float
    aHeat: float
    theta0: float
    xi: float = 0.0
    m: float = 0.0
    tau: float = 0.0
    D: np.ndarray | None = None
    B: np.ndarray | None = None
    b: np.ndarray | None = None
    M: np.ndarray | None = None
    aVec: np.ndarray | None = None

    def __post_init__(self):
        d = self.dim
        if d not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {d}")
        set_ = object.__setattr__
        set_(self, "C", _tensor("C", self.C, (d, d, d, d)))
        set_(self, "A", _tensor("A", self.A, (d, d)))
        set_(self, "K", _tensor("K", self.K, (d, d)))
        set_(self, "D", _tensor("D", self.D, (d, d, d)) if self.D is not None else np.zeros((d, d, d)))
        set_(self, "B", _tensor("B", self.B, (d, d)) if self.B is not None else np.zeros((d, d)))
        set_(self, "b", _tensor("b", self.b, (d,)) if self.b is not None else np.zeros(d))
        set_(self, "M", _tensor("M", self.M, (d, d)) if self.M is not None else np.zeros((d, d)))
        set_(self, "aVec", _tensor("aVec", self.aVec, (d,)) if self.aVec is not None else np.zeros(d))
        for name in ("rho", "chi", "aHeat", "theta0", "xi", "m", "tau"):
            set_(self, name, float(getattr(self, name)))

    def scaled(self, factor):
        """Material with all stored-energy coefficients multiplied by ``factor``."""
        return replace(self, C=factor * self.C, A=factor * self.A, xi=factor * self.xi,
                       D=factor * self.D, B=factor * self.B, b=factor * self.b)


# ---------------------------------------------------------------------------
# Validation


@dataclass
class Violation:
    rule: str
    index: tuple
    magnitude: float

    def __str__(self):
        return f"{self.rule} at index {self.index}: magnitude {self.magnitude:.3e}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, rule, index, magnitude):
        self.violations.append(Violation(rule, tuple(index), float(magnitude)))

    def __str__(self):
        if self.ok:
            return "material admissible (symmetry and sign checks)"
        return "\n".join(str(v) for v in self.violations)


def _flag_asymmetry(report, rule, arr, transposed):
    diff = np.abs(arr - transposed)
    worst = float(diff.max())
    tol = 1e-12 * max(1.0, float(np.abs(arr).max()))
    if worst > tol:
        index = tuple(int(i) for i in np.unravel_index(int(np.argmax(diff)), diff.shape))
        report.add(rule, index, worst)


def validate(material):
    """Check the coefficient symmetries and sign constraints.

    Returns a report listing each violated rule with the offending index
    tuple and magnitude.  Positive definiteness of the stored-energy form
    is left to :func:`spectrum`; the (cheap) conductivity check is done
    here as well.
    """
    rep = ValidationReport()
    C, D = material.C, material.D
    _flag_asymmetry(rep, "C major symmetry C_ijrs = C_rsij", C, C.transpose(2, 3, 0, 1))
    _flag_asymmetry(rep, "C minor symmetry C_ijrs = C_jirs", C, C.transpose(1, 0, 2, 3))
    _flag_asymmetry(rep, "D symmetry D_ijs = D_jis", D, D.transpose(1, 0, 2))
    for name in ("A", "B", "M", "K"):
        arr = getattr(material, name)
        _flag_asymmetry(rep, f"{name} symmetry", arr, arr.T)
    for name, value, strict in (("rho", material.rho, True), ("chi", material.chi, True),
                                ("aHeat", material.aHeat, True), ("theta0", material.theta0, True),
                                ("tau", material.tau, False)):
        bad = value <= 0.0 if strict else value < 0.0
        if bad:
            rep.add(f"{name} sign", (), value)
    k_eigs = np.linalg.eigvalsh(0.5 * (material.K + material.K.T))
    if k_eigs[0] <= 0.0:
        rep.add("K not positive definite", (0,), k_eigs[0])
    return rep


# ---------------------------------------------------------------------------
# Quadratic form and spectrum


@functools.lru_cache
def symmetric_basis(dim):
    """Orthonormal basis of symmetric tensors in the canonical pair order,
    cached per dimension and read-only."""
    pairs = voigt_pairs(dim)
    basis = np.zeros((len(pairs), dim, dim))
    for a, (i, j) in enumerate(pairs):
        if i == j:
            basis[a, i, i] = 1.0
        else:
            basis[a, i, j] = basis[a, j, i] = 1.0 / math.sqrt(2.0)
    basis.flags.writeable = False
    return basis


@functools.lru_cache
def assemble_quadratic_form(material):
    """Symmetric matrix Q with z^T Q z = twice the stored energy.

    The coordinate vector z stacks the scaled symmetric-tensor components,
    the sqrt(chi)-scaled void gradient, and the void fraction, so that
    |z|^2 equals the natural squared norm of the field triple.  Assembled
    apart from the constitutive kernel, an independent oracle; cached per
    material (frozen, hashed by identity) and read-only.
    """
    d = material.dim
    basis = symmetric_basis(d)
    nv = basis.shape[0]
    n = nv + d + 1
    sq = math.sqrt(material.chi)
    Q = np.zeros((n, n))
    Q[:nv, :nv] = np.einsum("aij,ijrs,brs->ab", basis, material.C, basis)
    Q[:nv, nv:nv + d] = np.einsum("aij,ijs->as", basis, material.D) / sq
    Q[:nv, -1] = np.einsum("aij,ij->a", basis, material.B)
    Q[nv:nv + d, nv:nv + d] = material.A / material.chi
    Q[nv:nv + d, -1] = material.b / sq
    Q[-1, -1] = material.xi
    Q = np.triu(Q) + np.triu(Q, 1).T
    Q.flags.writeable = False
    return Q


@dataclass(frozen=True)
class Spectrum:
    """Extreme eigenvalues of the energy and conductivity forms.

    ``mu_m``/``mu_M`` bound twice the stored energy in scaled coordinates,
    ``k_m``/``k_M`` are the conductivity moduli, ``M2`` the squared
    thermal-coupling bound M:M + aVec.aVec/chi.
    """

    mu_m: float
    mu_M: float
    k_m: float
    k_M: float
    M2: float


def spectrum(material, require="all"):
    """Spectral constants of the material.

    ``require`` controls admissibility enforcement: ``"all"`` raises
    :class:`NotPositiveDefinite` when either the energy form or the
    conductivity fails, ``"energy"`` checks the energy form only (used by
    the stepper, which tolerates a degenerate conductivity).
    """
    Q = assemble_quadratic_form(material)
    w = np.linalg.eigvalsh(Q)
    kw = np.linalg.eigvalsh(0.5 * (material.K + material.K.T))
    M2 = float(np.sum(material.M ** 2) + material.aVec @ material.aVec / material.chi)
    spec = Spectrum(mu_m=float(w[0]), mu_M=float(w[-1]),
                    k_m=float(kw[0]), k_M=float(kw[-1]), M2=M2)
    if spec.mu_m <= 0.0:
        raise NotPositiveDefinite(f"stored-energy form not positive definite (mu_m={spec.mu_m:.3e})")
    if require == "all" and spec.k_m <= 0.0:
        raise NotPositiveDefinite(f"conductivity not positive definite (k_m={spec.k_m:.3e})")
    return spec


# ---------------------------------------------------------------------------
# Decay-estimate constants


@dataclass(frozen=True)
class DecayParameters:
    """Constants of the spatial decay estimate for one time weight."""

    lam: float
    epsilon: float
    zeta: float
    eps1: float
    eps2: float
    decay_rate: float


def epsilon_of_lambda(spec, material, lam):
    """Nonnegative root of the quadratic tying the time weight to the
    spatial speed:

        eps^2 + 2*eps*(1/2 - M2/(2*a*rho*mu_M) - lam*k_M/(4*theta0*a*mu_M))
              - M2/(a*rho*mu_M) = 0
    """
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    a, rho, th0 = material.aHeat, material.rho, material.theta0
    beta = 0.5 - spec.M2 / (2.0 * a * rho * spec.mu_M) \
        - lam * spec.k_M / (4.0 * th0 * a * spec.mu_M)
    c = spec.M2 / (a * rho * spec.mu_M)
    eps = -beta + math.sqrt(beta * beta + c)
    return max(0.0, eps)


def epsilon_residual(eps, spec, material, lam):
    """Value of the defining quadratic at ``eps`` (zero for the exact root)."""
    a, rho, th0 = material.aHeat, material.rho, material.theta0
    beta = 0.5 - spec.M2 / (2.0 * a * rho * spec.mu_M) \
        - lam * spec.k_M / (4.0 * th0 * a * spec.mu_M)
    return eps * eps + 2.0 * eps * beta - spec.M2 / (a * rho * spec.mu_M)


def zeta_of_lambda(spec, material, lam):
    """Spatial speed and companion constants for time weight ``lam``.

    zeta = sqrt(mu_M*(1+eps)/rho); the two balancing constants are
    eps1 = 1/zeta and eps2 = 2*a*zeta/(lam*k_M); the spatial decay rate of
    the estimate is lam/zeta.
    """
    eps = epsilon_of_lambda(spec, material, lam)
    zeta = math.sqrt(spec.mu_M * (1.0 + eps) / material.rho)
    eps1 = 1.0 / zeta
    eps2 = 2.0 * material.aHeat * zeta / (lam * spec.k_M) if spec.k_M > 0 else math.inf
    return DecayParameters(lam=float(lam), epsilon=eps, zeta=zeta,
                           eps1=eps1, eps2=eps2, decay_rate=lam / zeta)


def feasibility_window(zeta, L, T, r0):
    """The admissible t0 interval (t0_min, t0_max) of the anchor (t0, r0)
    under the constraint L <= zeta*t0 + r0 <= zeta*T, with 0 <= t0 <= T.

    Raises :class:`InfeasibleWindow` when zeta*T < L (time weight too small
    for the horizon) or when the interval is empty.
    """
    if L <= 0.0 or T <= 0.0:
        raise ValueError("L and T must be positive")
    if zeta * T < L * (1.0 - 1e-12):
        raise InfeasibleWindow(f"zeta*T = {zeta * T:.6g} < L = {L:.6g}")
    t0_min = max(0.0, (L - r0) / zeta)
    t0_max = min(T - r0 / zeta, T)
    if t0_min > t0_max + 1e-12:
        raise InfeasibleWindow(
            f"r0 = {r0:.6g} leaves no admissible t0 (bounds [{t0_min:.6g}, {t0_max:.6g}])")
    return t0_min, t0_max


# ---------------------------------------------------------------------------
# Random admissible materials (property suites, self-test)


def _sym4(G):
    G = 0.5 * (G + G.transpose(1, 0, 2, 3))
    G = 0.5 * (G + G.transpose(0, 1, 3, 2))
    return 0.5 * (G + G.transpose(2, 3, 0, 1))


def _identity4(dim):
    eye = np.eye(dim)
    return 0.5 * (np.einsum("ir,js->ijrs", eye, eye) + np.einsum("is,jr->ijrs", eye, eye))


def random_material(dim, rng):
    """Random admissible material: symmetrized Gaussian coefficients with a
    diagonal shift guaranteeing positive definiteness of both forms (least
    eigenvalue of the assembled form at least 0.25)."""
    ridge = 0.25
    d = dim
    C = _sym4(rng.normal(size=(d, d, d, d)))
    D = rng.normal(size=(d, d, d), scale=0.4)
    D = 0.5 * (D + D.transpose(1, 0, 2))
    A = rng.normal(size=(d, d), scale=0.8)
    A = 0.5 * (A + A.T)
    B = rng.normal(size=(d, d), scale=0.4)
    B = 0.5 * (B + B.T)
    b = rng.normal(size=d, scale=0.4)
    M = rng.normal(size=(d, d), scale=0.5)
    M = 0.5 * (M + M.T)
    aVec = rng.normal(size=d, scale=0.5)
    S = rng.normal(size=(d, d))
    K = S @ S.T / d + 0.3 * np.eye(d)
    mat = Material(
        dim=d, C=C, A=A, K=K,
        rho=float(rng.uniform(0.5, 2.0)), chi=float(rng.uniform(0.5, 2.0)),
        aHeat=float(rng.uniform(0.5, 2.0)), theta0=float(rng.uniform(0.5, 2.0)),
        xi=float(rng.normal(scale=0.8)), m=float(rng.normal(scale=0.3)),
        tau=float(rng.uniform(0.0, 0.5)), D=D, B=B, b=b, M=M, aVec=aVec,
    )
    mu_min = np.linalg.eigvalsh(assemble_quadratic_form(mat))[0]
    if mu_min < ridge:
        # shifting C, A, xi this way adds exactly (ridge - mu_min) to every
        # eigenvalue of the assembled form
        shift = ridge - mu_min
        mat = replace(mat, C=mat.C + shift * _identity4(d),
                      A=mat.A + shift * mat.chi * np.eye(d), xi=mat.xi + shift)
    return mat


# ---------------------------------------------------------------------------
# File format: one `key = values` line per coefficient block, arrays
# flattened row-major, C and D in the packed canonical pair order.

_ARRAY_KEYS = ("C", "D", "A", "B", "b", "M", "aVec", "K")
_SCALAR_KEYS = ("xi", "m", "aHeat", "tau", "rho", "chi", "theta0")
MATERIAL_KEYS = ("dim",) + _ARRAY_KEYS + _SCALAR_KEYS


def _material_shapes(dim):
    nv = n_voigt(dim)
    return {
        "C": (nv, nv), "D": (nv, dim), "A": (dim, dim), "B": (dim, dim),
        "b": (dim,), "M": (dim, dim), "aVec": (dim,), "K": (dim, dim),
    }


def write_material_file(material, path):
    """Write the documented key-value material schema."""
    d = material.dim
    blocks = {
        "C": pack_elasticity(material.C, d), "D": pack_coupling(material.D, d),
        "A": material.A, "B": material.B, "b": material.b,
        "M": material.M, "aVec": material.aVec, "K": material.K,
    }
    lines = [f"dim = {d}"]
    for key in _ARRAY_KEYS:
        flat = " ".join(f"{v:.17g}" for v in np.asarray(blocks[key]).ravel())
        lines.append(f"{key} = {flat}")
    for key in _SCALAR_KEYS:
        lines.append(f"{key} = {getattr(material, key):.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_key_values(path, error):
    """The ``key = value`` lines of a file in file order, as a dict key ->
    (line number, value); ``#`` starts a comment.  A line without ``=`` or a
    repeated key raises ``error``."""
    entries = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise error(f"{path}:{lineno}: expected 'key = value'")
            key, _, rest = line.partition("=")
            key = key.strip()
            if key in entries:
                raise error(f"{path}:{lineno}: duplicate key '{key}'")
            entries[key] = (lineno, rest.strip())
    return entries


def read_numbers(text, kind, error, where, count=None):
    """The numbers of type ``kind`` (``int`` or ``float``) in ``text``: one
    number, or with ``count`` a tuple of that many separated by blanks.  A
    malformed or non-finite number or a wrong count raises ``error`` naming
    ``where`` (``path:line: key``)."""
    words = [text] if count is None else text.split()
    try:
        values = tuple(kind(w) for w in words)
    except ValueError:
        values = None
    if values is None or not all(map(math.isfinite, values)):
        noun = "integers" if kind is int else "finite numbers"
        raise error(f"{where}: expected {noun}, got '{text}'")
    if count is None:
        return values[0]
    if len(values) != count:
        raise error(f"{where}: expected {count} values, got {len(values)}")
    return values


def read_material_file(path):
    """Parse a material file; rejects missing, duplicate, or unknown keys."""
    entries = read_key_values(path, MaterialFileError)
    for key, (lineno, _) in entries.items():
        if key not in MATERIAL_KEYS:
            raise MaterialFileError(f"{path}:{lineno}: unknown key '{key}'")
    missing = [k for k in MATERIAL_KEYS if k not in entries]
    if missing:
        raise MaterialFileError(f"{path}: missing keys: {', '.join(missing)}")

    def number(key, kind=float, count=None):
        lineno, text = entries[key]
        return read_numbers(text, kind, MaterialFileError, f"{path}:{lineno}: {key}", count)

    dim = number("dim", int)
    if dim not in (1, 2, 3):
        raise MaterialFileError(f"{path}:{entries['dim'][0]}: dim must be 1, 2 or 3")
    shapes = _material_shapes(dim)
    arrays = {key: np.reshape(number(key, count=math.prod(shapes[key])), shapes[key])
              for key in _ARRAY_KEYS}
    scalars = {key: number(key) for key in _SCALAR_KEYS}

    return Material(
        dim=dim,
        C=unpack_elasticity(arrays["C"], dim),
        D=unpack_coupling(arrays["D"], dim),
        A=arrays["A"], B=arrays["B"], b=arrays["b"],
        M=arrays["M"], aVec=arrays["aVec"], K=arrays["K"],
        **scalars,
    )
