"""The split cubic family f = L1*Q1 + L2*Q2 + a7*x7^3 in seven variables.

Derived coefficient systems, block normal forms, classification, and the
rational 4-dimensional linear spaces contained in f = 0.

Quadratic coefficients are ordered (A1, A2, A3, B1, B2, B3) for
A1*x^2 + A2*y^2 + A3*z^2 + B1*y*z + B2*z*x + B3*x*y.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .arith import content, icbrt_exact, isqrt_exact
from .errors import DegenerateBlockError, DomainError, InvalidFormError

# Parse-time cap on coefficient magnitude, so degree-6 coefficient monomials
# stay far inside exact integer range everywhere downstream.
COEFF_CAP = 1 << 20

BOX_KINDS = ("sym", "pos", "nonneg")


def box_interval(box: str, P: int) -> tuple[int, int]:
    """Integer range [lo, hi] of one coordinate of the box of radius P."""
    if box == "sym":
        return -P, P
    if box == "pos":
        return 1, P
    if box == "nonneg":
        return 0, P
    raise DomainError(f"unknown box kind {box!r}")


def box_range(box: str, P: int) -> range:
    lo, hi = box_interval(box, P)
    return range(lo, hi + 1)


_SLAB = 1 << 22  # grid cells per slab of block_slabs


def block_value(l, q, x, y, z):
    """Value of the ternary block L(x,y,z) * Q(x,y,z); broadcasts over arrays."""
    a1, a2, a3 = l
    A1, A2, A3, B1, B2, B3 = q
    lin = a1 * x + a2 * y + a3 * z
    quad = (
        A1 * x * x + A2 * y * y + A3 * z * z + B1 * y * z + B2 * z * x + B3 * x * y
    )
    return lin * quad


def block_slabs(l, q, r):
    """Yield (first flat index, L*Q values) over the grid r^3 in x-slabs.

    r is an int64 coordinate array and (r[i], r[j], r[k]) has flat index
    (i * n + j) * n + k.  The yielded array is overwritten by the next slab:
    two slab buffers are reused throughout, so no slab costs a fresh
    allocation.
    """
    n = len(r)
    a1, a2, a3 = (int(v) for v in l)
    A1, A2, A3, B1, B2, B3 = (int(v) for v in q)
    Y, Z = r[None, :, None], r[None, None, :]
    liny = a2 * Y + a3 * Z
    base = A2 * Y * Y + A3 * Z * Z + B1 * Y * Z
    step = max(1, _SLAB // (n * n))
    vbuf = np.empty((min(step, n), n, n), dtype=np.int64)
    lbuf = np.empty_like(vbuf)
    for s in range(0, n, step):
        X = r[s : s + step][:, None, None]
        v, lin = vbuf[: len(X)], lbuf[: len(X)]
        np.add(a1 * X, liny, out=lin)
        np.add(base, A1 * X * X, out=v)
        v += B2 * Z * X
        v += B3 * X * Y
        v *= lin
        yield s * n * n, v.ravel()


def block_frame(l, q):
    """(V, L o V, Q o V) for the unimodular V of integer_kernel's reduction.

    V (rows of a 3x3 integer matrix, det +-1) has first column w with
    L.w = +-content(L) and the kernel basis of L as its other columns, so
    L o V = (+-content(L), 0, 0) and the block becomes g*X1*Q'(X1, X2, X3).
    Q' = Q o V comes from the bilinear form of the Gram matrix of 2Q on the
    columns of V.  For L = 0, V is the identity.
    """
    a, v, _ = lattice._column_reduce([tuple(int(c) for c in l)])
    A1, A2, A3, B1, B2, B3 = (int(c) for c in q)
    gram = ((2 * A1, B3, B2), (B3, 2 * A2, B1), (B2, B1, 2 * A3))
    cols = list(zip(*v))

    def pair(s, t):
        return sum(s[i] * gram[i][j] * t[j] for i in range(3) for j in range(3))

    qv = tuple(pair(c, c) // 2 for c in cols) + tuple(
        pair(cols[j], cols[k]) for j, k in ((1, 2), (2, 0), (0, 1))
    )
    return tuple(map(tuple, v)), tuple(a[0]), qv


def cube_residues(a7: int, m: int) -> np.ndarray:
    """a7 * x^3 mod m for x = 0, ..., m - 1, as int64 (exact for m < 2^31)."""
    x = np.arange(m, dtype=np.int64)
    return (a7 % m) * ((x * x % m) * x % m) % m


@dataclass(frozen=True)
class CubicForm:
    """Integer coefficients (a1..a7, Q1, Q2) plus the box kind."""

    a: tuple[int, int, int, int, int, int, int]
    q1: tuple[int, int, int, int, int, int]
    q2: tuple[int, int, int, int, int, int]
    box: str = "sym"

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(v) for v in self.a))
        object.__setattr__(self, "q1", tuple(int(v) for v in self.q1))
        object.__setattr__(self, "q2", tuple(int(v) for v in self.q2))
        if len(self.a) != 7 or len(self.q1) != 6 or len(self.q2) != 6:
            raise InvalidFormError("need 7 linear/cubic and 2x6 quadratic coefficients")
        if self.box not in BOX_KINDS:
            raise DomainError(f"unknown box kind {self.box!r}")
        if self.a[6] == 0:
            raise InvalidFormError("a7 must be nonzero")
        if self.a[0] == self.a[1] == self.a[2] == 0:
            raise InvalidFormError("L1 must be nonzero")
        if self.a[3] == self.a[4] == self.a[5] == 0:
            raise InvalidFormError("L2 must be nonzero")
        for v in (*self.a, *self.q1, *self.q2):
            if abs(v) > COEFF_CAP:
                raise InvalidFormError(f"coefficient {v} exceeds the cap {COEFF_CAP}")

    @property
    def l1(self) -> tuple[int, int, int]:
        return self.a[0:3]

    @property
    def l2(self) -> tuple[int, int, int]:
        return self.a[3:6]

    @property
    def a7(self) -> int:
        return self.a[6]

    def blocks(self):
        return (self.l1, self.q1), (self.l2, self.q2)

    def value(self, x) -> int:
        if len(x) != 7:
            raise DomainError("expected 7 coordinates")
        return (
            block_value(self.l1, self.q1, x[0], x[1], x[2])
            + block_value(self.l2, self.q2, x[3], x[4], x[5])
            + self.a7 * x[6] * x[6] * x[6]
        )


def adjoint_matrix(q) -> tuple[tuple[int, int, int], ...]:
    """The symmetric matrix attached to the quadratic form 2Q.

    Note the sign convention: this is the *negated* adjugate of the Gram
    matrix of 2Q (checked against a determinant-of-minors oracle in tests).
    """
    A1, A2, A3, B1, B2, B3 = q
    m11 = B1 * B1 - 4 * A2 * A3
    m22 = B2 * B2 - 4 * A1 * A3
    m33 = B3 * B3 - 4 * A1 * A2
    m12 = 2 * A3 * B3 - B1 * B2
    m13 = 2 * A2 * B2 - B1 * B3
    m23 = 2 * A1 * B1 - B2 * B3
    return ((m11, m12, m13), (m12, m22, m23), (m13, m23, m33))


def delta(l, q) -> int:
    """The block discriminant a . M . a^T with M = adjoint_matrix(q)."""
    if tuple(l) == (0, 0, 0):
        raise InvalidFormError("zero linear form has no discriminant")
    m = adjoint_matrix(q)
    return sum(l[i] * m[i][j] * l[j] for i in range(3) for j in range(3))


def _pivot_order(l, pivot: int) -> tuple[int, int, int]:
    return (pivot,) + tuple(i for i in range(3) if i != pivot)


def _permute_block(l, q, pivot: int):
    """Relabel block variables so the pivot plays the first role.

    The B coefficients are indexed by the omitted variable, so they permute
    by the same index map as the A coefficients.
    """
    order = _pivot_order(l, pivot)
    a = tuple(l[i] for i in order)
    A = tuple(q[i] for i in order)
    B = tuple(q[3 + i] for i in order)
    return a, A, B, order


def _primed(a, A, B) -> tuple[int, int, int, int, int]:
    a1, a2, a3 = a
    A1, A2, A3 = A
    B1, B2, B3 = B
    Ap = A1 * a2 * a2 + A2 * a1 * a1 - B3 * a1 * a2
    Bp = 2 * A1 * a2 * a3 + B1 * a1 * a1 - B2 * a1 * a2 - B3 * a1 * a3
    Cp = A1 * a3 * a3 + A3 * a1 * a1 - B2 * a1 * a3
    Fp = B2 * a1 - 2 * A1 * a3
    Gp = B3 * a1 - 2 * A1 * a2
    return Ap, Bp, Cp, Fp, Gp


@dataclass(frozen=True)
class BlockInvariants:
    delta: int
    pivot: int  # 1-based index of the chosen nonzero linear coefficient
    order: tuple[int, int, int]  # 0-based variable order used for primed
    primed: tuple[int, int, int, int, int]  # (A', B', C', F', G')
    dpp: int | None  # D'' where the nonzero-discriminant branches define it
    frakD: int  # 0 exactly when the block is degenerate
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "pivot": self.pivot,
            "primed": list(self.primed),
            "dpp": self.dpp,
            "frakD": self.frakD,
            "degenerate": self.degenerate,
        }


def block_invariants(l, q) -> BlockInvariants:
    """Primed coefficients, D'', the case constant frakD, and degeneracy."""
    l = tuple(l)
    q = tuple(q)
    pivot = next((i for i in range(3) if l[i] != 0), None)
    if pivot is None:
        raise InvalidFormError("zero linear form in a block")
    a, A, B, order = _permute_block(l, q, pivot)
    Ap, Bp, Cp, Fp, Gp = _primed(a, A, B)
    a1 = a[0]
    A1 = A[0]
    dlt = delta(l, q)
    if Bp * Bp - 4 * Ap * Cp != a1 * a1 * dlt:
        raise AssertionError("primed discriminant identity violated")
    dpp: int | None = None
    if dlt != 0:
        if Ap != 0:
            dpp = a1 * a1 * dlt * (4 * Ap * A1 - Gp * Gp) + (2 * Ap * Fp - Bp * Gp) ** 2
            frakD = 2 * dlt * Ap
        elif Cp != 0:
            dpp = a1 * a1 * dlt * (4 * Cp * A1 - Fp * Fp) + (2 * Cp * Gp - Bp * Fp) ** 2
            frakD = 2 * dlt * Cp
        else:
            # B' != 0 is forced here by B'^2 - 4A'C' = a1^2 * delta != 0.
            dpp = Bp * A1 - Fp * Gp
            frakD = Bp
        degenerate = False
    else:
        if Ap * (2 * Ap * Fp - Bp * Gp) != 0:
            frakD = 2 * Ap
            degenerate = False
        elif Cp * (2 * Cp * Gp - Bp * Fp) != 0:
            frakD = 2 * Cp
            degenerate = False
        else:
            frakD = 0
            degenerate = True
    return BlockInvariants(
        delta=dlt,
        pivot=pivot + 1,
        order=order,
        primed=(Ap, Bp, Cp, Fp, Gp),
        dpp=dpp,
        frakD=frakD,
        degenerate=degenerate,
    )


def _unpermute(cov, order) -> tuple[int, int, int]:
    """Map a covector on permuted variables back to the original order."""
    out = [0, 0, 0]
    for j in range(3):
        out[order[j]] = cov[j]
    return tuple(out)


def _comb(*terms) -> list[int]:
    """Integer combination sum(c * vec) of length-3 covectors."""
    out = [0, 0, 0]
    for c, vec in terms:
        for i in range(3):
            out[i] += c * vec[i]
    return out


@dataclass(frozen=True)
class NormalForm:
    """Integer change of variables with scale * L * Q = rhs(x1p, x2p, x3p).

    branch "zero-*"    : rhs = X1 * (X1*X3 + X2^2)
    branch "nonzero-*" : rhs = X1 * (quad*X2^2 - X3^2 + cube*X1^2)
    branch "split"     : rhs = X1 * (X2*X3 + cube*X1^2)
    """

    branch: str
    scale: int
    x1p: tuple[int, int, int]
    x2p: tuple[int, int, int]
    x3p: tuple[int, int, int]
    quad: int = 0
    cube: int = 0

    def rhs(self, x: int, y: int, z: int) -> int:
        v = (x, y, z)
        X1 = sum(c * t for c, t in zip(self.x1p, v))
        X2 = sum(c * t for c, t in zip(self.x2p, v))
        X3 = sum(c * t for c, t in zip(self.x3p, v))
        if self.branch.startswith("zero"):
            return X1 * (X1 * X3 + X2 * X2)
        if self.branch.startswith("nonzero"):
            return X1 * (self.quad * X2 * X2 - X3 * X3 + self.cube * X1 * X1)
        return X1 * (X2 * X3 + self.cube * X1 * X1)

    def to_dict(self) -> dict:
        return {
            "branch": self.branch,
            "scale": self.scale,
            "x1p": list(self.x1p),
            "x2p": list(self.x2p),
            "x3p": list(self.x3p),
            "quad": self.quad,
            "cube": self.cube,
        }


def transform_block(l, q, block_index: int = 0) -> NormalForm:
    """Normal-form descriptor for one block; raises on degenerate blocks.

    The descriptor is self-checking: both sides of the identity are compared
    on the grid {-2..2}^3, which pins a cubic of per-variable degree <= 3.
    """
    inv = block_invariants(l, q)
    if inv.degenerate:
        raise DegenerateBlockError(block_index)
    a, A, B, order = _permute_block(l, q, inv.pivot - 1)
    Ap, Bp, Cp, Fp, Gp = inv.primed
    a1, A1 = a[0], A[0]
    L = a  # x1' = L as a covector on the permuted variables
    e2, e3 = (0, 1, 0), (0, 0, 1)
    dlt = inv.delta
    if dlt != 0:
        quad = a1 * a1 * dlt
        if Ap != 0:
            x2 = _comb((2 * Ap, e2), (Bp, e3), (Gp, L))
            x3 = _comb((quad, e3), ((Bp * Gp - 2 * Ap * Fp), L))
            nf = NormalForm(
                "nonzero-a", 4 * Ap * a1 ** 4 * dlt,
                _unpermute(L, order), _unpermute(x2, order), _unpermute(x3, order),
                quad=quad, cube=inv.dpp,
            )
        elif Cp != 0:
            x5 = _comb((quad, e2), ((Bp * Fp - 2 * Cp * Gp), L))
            x6 = _comb((2 * Cp, e3), (Bp, e2), (Fp, L))
            nf = NormalForm(
                "nonzero-c", 4 * Cp * a1 ** 4 * dlt,
                _unpermute(L, order), _unpermute(x6, order), _unpermute(x5, order),
                quad=quad, cube=inv.dpp,
            )
        else:
            x5 = _comb((Bp, e2), (Fp, L))
            x6 = _comb((Bp, e3), (Gp, L))
            nf = NormalForm(
                "split", Bp * a1 * a1,
                _unpermute(L, order), _unpermute(x5, order), _unpermute(x6, order),
                cube=inv.dpp,
            )
    else:
        if Ap * (2 * Ap * Fp - Bp * Gp) != 0:
            x2 = _comb((2 * Ap, e2), (Bp, e3), (Gp, L))
            x3 = _comb(((4 * Ap * A1 - Gp * Gp), L), ((4 * Ap * Fp - 2 * Bp * Gp), e3))
            nf = NormalForm(
                "zero-a", 4 * Ap * a1 * a1,
                _unpermute(L, order), _unpermute(x2, order), _unpermute(x3, order),
            )
        else:
            x2 = _comb((2 * Cp, e3), (Bp, e2), (Fp, L))
            x3 = _comb(((4 * Cp * A1 - Fp * Fp), L), ((4 * Cp * Gp - 2 * Bp * Fp), e2))
            nf = NormalForm(
                "zero-c", 4 * Cp * a1 * a1,
                _unpermute(L, order), _unpermute(x2, order), _unpermute(x3, order),
            )
    for x, y, z in itertools.product(range(-2, 3), repeat=3):
        if nf.scale * block_value(l, q, x, y, z) != nf.rhs(x, y, z):
            raise AssertionError("normal-form identity failed self-check")
    return nf


def is_rational_cube(num: int, den: int) -> tuple[int, int] | None:
    """(d1, d2) coprime with num/den = d1^3/d2^3 and d2 > 0, else None.

    Exact integer arithmetic only; num = 0 returns None (a cube of a
    *nonzero* rational is required by the callers).
    """
    if den == 0:
        raise DomainError("zero denominator")
    if num == 0:
        return None
    if den < 0:
        num, den = -num, -den
    g = math.gcd(abs(num), den)
    num //= g
    den //= g
    d1 = icbrt_exact(num)
    d2 = icbrt_exact(den)
    if d1 is None or d2 is None:
        return None
    return d1, d2


@dataclass(frozen=True)
class LinearSpace:
    """A rational 4-space inside f = 0, given as the kernel of 3 covectors."""

    covectors: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    tag: str  # "1", "2", "3", "2'", "3'"
    subcase: str | None = None  # "i" | "ii" | "iii" for the primed cases
    note: str = ""

    def kernel_basis(self) -> list[tuple[int, ...]]:
        return lattice.echelon_lattice_basis(lattice.integer_kernel(list(self.covectors)))

    def to_dict(self) -> dict:
        d = {
            "covectors": [list(c) for c in self.covectors],
            "tag": self.tag,
            "subcase": self.subcase,
            "basis": [list(b) for b in self.kernel_basis()],
        }
        if self.note:
            d["note"] = self.note
        return d


def _embed_block2(cov3) -> tuple[int, ...]:
    return (0, 0, 0) + tuple(cov3) + (0,)


def _primitive_covector(cov) -> tuple[int, ...]:
    g = content(cov)
    if g == 0:
        raise AssertionError("zero covector for a space")
    cov = tuple(c // g for c in cov)
    lead = next(c for c in cov if c != 0)
    if lead < 0:
        cov = tuple(-c for c in cov)
    return cov


def _space_key(space: LinearSpace):
    return tuple(space.kernel_basis())


def _vanishes_on(form: CubicForm, space: LinearSpace) -> bool:
    basis = space.kernel_basis()
    if len(basis) != 4:
        return False
    # f restricted to the space has per-parameter degree <= 3, so vanishing
    # on the grid {0..3}^4 proves vanishing identically.
    for t in itertools.product(range(4), repeat=4):
        x = [sum(t[j] * basis[j][i] for j in range(4)) for i in range(7)]
        if form.value(x) != 0:
            return False
    return True


def linear_spaces(form: CubicForm) -> list[LinearSpace]:
    """All linear spaces guaranteed by the block-2 factorization analysis."""
    inv1 = block_invariants(form.l1, form.q1)
    inv2 = block_invariants(form.l2, form.q2)
    if inv1.degenerate:
        raise DegenerateBlockError(1)
    if inv2.degenerate:
        raise DegenerateBlockError(2)
    l1cov = tuple(form.l1) + (0, 0, 0, 0)
    l2cov = _embed_block2(form.l2)
    e7 = (0, 0, 0, 0, 0, 0, 1)
    spaces = [LinearSpace((l1cov, l2cov, e7), "1")]

    d = isqrt_exact(inv2.delta) if inv2.delta > 0 else None
    if d:
        # Delta2 = d^2 > 0, so the normal form's quad*X2^2 - X3^2 factors as
        # (a4*d*X2 + X3)(a4*d*X2 - X3); the split branch already has X2*X3.
        nf = transform_block(form.l2, form.q2, 2)
        subcase = {"nonzero-a": "i", "nonzero-c": "ii", "split": "iii"}[nf.branch]
        if subcase == "iii":
            fplus, fminus = nf.x2p, nf.x3p
        else:
            a4d = form.l2[inv2.pivot - 1] * d
            fplus = _comb((a4d, nf.x2p), (1, nf.x3p))
            fminus = _comb((a4d, nf.x2p), (-1, nf.x3p))
        wplus = _primitive_covector(_embed_block2(fplus))
        wminus = _primitive_covector(_embed_block2(fminus))
        if nf.cube == 0:
            spaces.append(LinearSpace((l1cov, wplus, e7), "2", subcase))
            spaces.append(LinearSpace((l1cov, wminus, e7), "3", subcase))
        else:
            rc = is_rational_cube(nf.cube, nf.scale * form.a7)
            if rc is not None:
                d1, d2 = rc
                third = tuple(d1 * a + d2 * b for a, b in zip(l2cov, e7))
                note = (
                    "second space taken symmetric to the first"
                    if subcase == "ii"
                    else ""
                )
                spaces.append(LinearSpace((l1cov, wplus, third), "2'", subcase))
                spaces.append(LinearSpace((l1cov, wminus, third), "3'", subcase, note))

    out: list[LinearSpace] = []
    seen = set()
    for sp in spaces:
        key = _space_key(sp)
        if key in seen:
            continue
        seen.add(key)
        if not _vanishes_on(form, sp):
            raise AssertionError(f"space {sp.tag} does not lie on f = 0")
        out.append(sp)
    return out


@dataclass(frozen=True)
class Classification:
    block1: BlockInvariants
    block2: BlockInvariants
    q2_factorizes: bool
    spaces: tuple[LinearSpace, ...]
    content: int
    multipliers: tuple[int, int, int]

    def to_dict(self) -> dict:
        return {
            "block1": self.block1.to_dict(),
            "block2": self.block2.to_dict(),
            "q2_factorizes": self.q2_factorizes,
            "spaces": [s.to_dict() for s in self.spaces],
            "content": self.content,
            "multipliers": list(self.multipliers),
        }


def content_decomposition(form: CubicForm):
    """(c, (c1, c2, c3), content-1 blocks) with f = c*(c1*B1' + c2*B2' + c3*x7^3).

    A block whose quadratic vanishes identically has no content-1 form and
    raises DegenerateBlockError.
    """
    for i, q in enumerate((form.q1, form.q2), start=1):
        if not any(q):
            raise DegenerateBlockError(i)
    g1 = content(form.l1) * content(form.q1)
    g2 = content(form.l2) * content(form.q2)
    c = math.gcd(math.gcd(g1, g2), abs(form.a7))
    c1, c2, c3 = g1 // c, g2 // c, form.a7 // c
    b1 = (
        tuple(v // content(form.l1) for v in form.l1),
        tuple(v // content(form.q1) for v in form.q1),
    )
    b2 = (
        tuple(v // content(form.l2) for v in form.l2),
        tuple(v // content(form.q2) for v in form.q2),
    )
    return c, (c1, c2, c3), b1, b2


def classify(form: CubicForm) -> Classification:
    """Block invariants, content decomposition, and the space census."""
    inv1 = block_invariants(form.l1, form.q1)
    inv2 = block_invariants(form.l2, form.q2)
    if inv1.degenerate:
        raise DegenerateBlockError(1)
    if inv2.degenerate:
        raise DegenerateBlockError(2)
    c, mult, _, _ = content_decomposition(form)
    q2fac = (
        inv2.delta > 0 and isqrt_exact(inv2.delta) is not None and inv2.dpp == 0
    )
    spaces = tuple(linear_spaces(form))
    return Classification(inv1, inv2, q2fac, spaces, c, mult)


def form_from_dict(d: dict) -> CubicForm:
    """Parse the JSON form layout; raises InvalidFormError on bad shapes."""
    try:
        a = [int(v) for v in d["a"]]
        q1 = [int(v) for v in d["Q1"]["A"]] + [int(v) for v in d["Q1"]["B"]]
        q2 = [int(v) for v in d["Q2"]["A"]] + [int(v) for v in d["Q2"]["B"]]
    except (KeyError, TypeError, ValueError) as e:
        raise InvalidFormError(f"malformed form layout: {e}") from e
    box = d.get("box", "sym")
    return CubicForm(tuple(a), tuple(q1), tuple(q2), box)


def form_to_dict(form: CubicForm) -> dict:
    return {
        "a": list(form.a),
        "Q1": {"A": list(form.q1[:3]), "B": list(form.q1[3:])},
        "Q2": {"A": list(form.q2[:3]), "B": list(form.q2[3:])},
        "box": form.box,
    }


def load_form(path: str) -> CubicForm:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as e:
            raise InvalidFormError(f"form file is not valid JSON: {e}") from e
    return form_from_dict(d)
