"""Dirichlet characters mod q as exponent tuples over (Z/qZ)* generators.

A character is stored as its exponent tuple (j_1, ..., j_r) against the
generators of `GroupStructure`: chi(g_l) = exp(2 pi i j_l / d_l).  Evaluation
anywhere is integer index arithmetic followed by one root-of-unity lookup, so
character values are exact roots of unity up to one complex rounding.

Characters are enumerated in C order of their exponent tuples; index 0 is the
trivial character.  The group also provides vectorized tables (parity bits,
conductors, orders, the conjugation permutation, which `conjugate` applies to
any array without the table), the character families every moment sums over
(`family_mask`), and the fast weighted-sum transform

    transform(w)[j] = sum_i chi_j(u_i) w[i]   (weights on the units u = n_of_index),

computed for all phi(q) characters at once as one in-place multidimensional
inverse FFT in one phi-wide buffer, over the cyclic components, each split
into its prime-power factors by Good-Thomas (so q = 100003 transforms a
(2, 3, 7, 2381) array, never one length-100002 Bluestein FFT).
`transform(w, parity)` returns one parity's characters only.  On a cyclic
group of order d = 2h (q prime, p^e, 2 p^e or 4), u_m = g^m, -1 = g^h and
chi_j has parity j mod 2, so the even values are the length-h inverse DFT
of w_m + w_{m+h} and the odd ones the odd bins of the length-d inverse DFT
of w_m - w_{m+h}: half the work of the full transform.  Only real w (the
theta weights) takes this fold, through rfft, and the values past its half
are the conjugates of earlier ones (chi_{d-j} = conj chi_j).  Complex w,
and every other group, run the same in-place block over the unsplit grid
(the split maps would pay off for one transform only) and select the
parity; `parity_index` is that selection (eta::2 on a cyclic group).
Tables are built by broadcasting per-component exponent ranges, never as a
phi x r matrix, and none reads a length-q table.

`character_sums(w, parity)` is the step both theta and L take: the values
of `transform` plus, per row, the one bound on their rounding,
rounding_bound(phi, sum |w|).  Without a parity it also makes each row of
real weights exactly conjugate-symmetric, v[conjugation] = conj v, by a
mean charged eps max |v|, since a multi-axis FFT of real input is not.

A conductor is the product of local conductors, one per p^e || q, read off
the exponents on that prime's components: p^{1 + v_p(o)} for odd p and local
order o > 1; 4 when p^e = 4 and chi is nontrivial there; for 2^e, e >= 3, -3
(not the generator 3) spans the units = 1 mod 4: 4 o if chi(-3) has order
o > 1, else 4 or 1 by parity.  Every table is O(phi(q)) memory.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DomainError
from .numtheory import GroupStructure, factorize, group_structure
from .specfun import ComplexApprox
from .summation import rounding_bound

__all__ = ["FAMILIES", "Character", "CharacterGroup", "build_group", "gauss_sum"]

_EPS = np.finfo(float).eps

THETA_FAMILIES = ("even", "odd")  # primitive characters of one parity
L_FAMILIES = ("star", "nonquadratic", "star-nonquadratic")
FAMILIES = THETA_FAMILIES + L_FAMILIES


class CharacterGroup:
    """All Dirichlet characters mod q, with batch tables and transforms."""

    def __init__(self, q: int):
        if q < 1:
            raise DomainError("modulus must be >= 1")
        self.q = q
        self.structure: GroupStructure = group_structure(q)
        self._dims = self.structure.dims
        self._e = self.structure.exponent

    # -- basic shape -------------------------------------------------------

    @property
    def phi(self) -> int:
        return self.structure.phi

    def __len__(self) -> int:
        return self.phi

    def __iter__(self):
        for i in range(self.phi):
            yield self.char(i)

    def char(self, index: int) -> "Character":
        if not 0 <= index < self.phi:
            raise DomainError(f"character index {index} out of range 0..{self.phi - 1}")
        return Character(self, index, tuple(int(x) for x in np.unravel_index(index, self._dims)))

    def char_from_exponents(self, exponents: tuple[int, ...]) -> "Character":
        if len(exponents) != len(self._dims):
            raise DomainError("exponent tuple length does not match group rank")
        exps = tuple(j % d for j, d in zip(exponents, self._dims))
        index = int(np.ravel_multi_index(exps, self._dims)) if self._dims else 0
        return Character(self, index, exps)

    def conjugate_index(self, index: int) -> int:
        """Index of the complex-conjugate character."""
        return int(self.conjugation[index])

    # -- batch tables ------------------------------------------------------

    @cached_property
    def _roots(self) -> np.ndarray:
        """exp(2 pi i t / e) for t = 0..e-1."""
        return np.exp(2j * np.pi * np.arange(self._e) / self._e)

    @cached_property
    def _ranges(self) -> tuple[np.ndarray, ...]:
        """arange(d_l) per component, shaped to broadcast over the exponent grid."""
        return np.ix_(*(np.arange(d) for d in self._dims))

    @cached_property
    def parity_bits(self) -> np.ndarray:
        """0 for even characters (chi(-1) = 1), 1 for odd, all characters."""
        out = np.zeros(self._dims, dtype=np.int64)
        # chi(-1) = prod_l exp(2 pi i j_l m_l / d_l) with m_l = 0 or d_l / 2
        for j, m in zip(self._ranges, self.structure.minus_one):
            if m:
                out ^= j & 1
        return out.reshape(-1)

    def parity_index(self, parity: int) -> slice | np.ndarray:
        """Indexer of the parity-eta characters along an index-ordered axis;
        on a cyclic group chi_j has parity j mod 2, as transform's fold uses."""
        return slice(parity, None, 2) if len(self._dims) == 1 else self.parity_bits == parity

    @cached_property
    def orders(self) -> np.ndarray:
        """Multiplicative order of each character."""
        out = np.ones(self._dims, dtype=np.int64)
        for j, d in zip(self._ranges, self._dims):
            out = np.lcm(out, d // np.gcd(j, d))
        return out.reshape(-1)

    @cached_property
    def conductors(self) -> np.ndarray:
        """Conductor of each character: the product of its local conductors
        over the prime powers p^e || q (see the module docstring)."""
        out = np.ones(self._dims, dtype=np.int64)
        ranges = iter(self._ranges)
        for p, e in self.structure.factorization.factors:
            # chi(g) = exp(2 pi i x / ord g), x != 0, gives p^e / gcd(x, p-part of
            # ord g): p^{1 + v_p(o)} for odd p, 4 o for g = -3 (o = order of chi(g))
            if p != 2:
                j = next(ranges)
                out = out * np.where(j > 0, p if e == 1 else p ** e // np.gcd(j, p ** (e - 1)), 1)
            elif e == 2:
                out = out * np.where(next(ranges) > 0, 4, 1)
            elif e > 2:  # (Z/2Z)* (e = 1) is trivial and has no component
                s, j = next(ranges), next(ranges)  # exponents on -1 and on 3
                d = 2 ** (e - 2)
                x = (s * (d // 2) + j) % d  # exponent of chi(-3)
                out = out * np.where(x > 0, 2 ** e // np.gcd(x, d), np.where(s == 1, 4, 1))
        return out.reshape(-1)

    @cached_property
    def primitive_mask(self) -> np.ndarray:
        """conductors == q, as one condition per p^e || q that its local
        conductor is p^e (see the module docstring), with no product formed."""
        out = np.ones(self._dims, dtype=bool)
        ranges = iter(self._ranges)
        for p, e in self.structure.factorization.factors:
            if p != 2:  # j prime to p, which for e = 1 (j < p - 1) is j > 0
                j = next(ranges)
                out &= j % p != 0 if e > 1 else j > 0
            elif e <= 2:  # 2 || q: every character is induced from q / 2
                out &= e == 2 and next(ranges) > 0
            else:  # the exponent of chi(-3), s 2^{e-3} + j mod 2^{e-2}, is odd
                out &= (next(ranges) * 2 ** (e - 3) + next(ranges)) % 2 == 1
        return out.reshape(-1)

    @cached_property
    def quadratic_or_trivial_mask(self) -> np.ndarray:
        """chi^2 = trivial character (order 1 or 2)."""
        return self.orders <= 2

    def conjugate(self, values: np.ndarray) -> np.ndarray:
        """values[..., conjugation] for a last axis in index order: exponents
        j -> -j, a flip and a shift by one along each component of the grid,
        with no index table."""
        if not self._dims:
            return values.copy()
        axes = tuple(range(-len(self._dims), 0))
        grid = values.reshape(values.shape[:-1] + self._dims)
        return np.roll(np.flip(grid, axes), 1, axes).reshape(values.shape)

    @cached_property
    def conjugation(self) -> np.ndarray:
        """perm with perm[j] = index of conj(chi_j)."""
        return self.conjugate(np.arange(self.phi))

    def family_mask(self, name: str) -> np.ndarray:
        """Boolean mask of the characters in a family, one of FAMILIES:

        even / odd: primitive characters of that parity (the theta families);
        star: primitive; nonquadratic: chi^2 nontrivial; star-nonquadratic: both.
        """
        if name in THETA_FAMILIES:
            out, idx = np.zeros(self.phi, dtype=bool), self.parity_index(THETA_FAMILIES.index(name))
            out[idx] = self.primitive_mask[idx]
            return out
        if name == "star":
            return self.primitive_mask.copy()
        if name == "nonquadratic":
            return ~self.quadratic_or_trivial_mask
        if name == "star-nonquadratic":
            return self.primitive_mask & ~self.quadratic_or_trivial_mask
        raise DomainError(f"unknown family {name!r}; expected one of {FAMILIES}")

    # -- evaluation and transforms ----------------------------------------

    def value_table(self, index: int) -> np.ndarray:
        """chi(a) for a = 0..q-1 (0 at non-units)."""
        # chi_j(prod g_l^{m_l}) = root[sum_l m_l j_l (e/d_l) mod e]
        t = np.zeros(self._dims, dtype=np.int64)
        for m, d, j in zip(self._ranges, self._dims, self.char(index).exponents):
            t = t + m * (j * (self._e // d)) % self._e
        table = np.zeros(self.q, dtype=complex)
        table[self.structure.n_of_index] = self._roots[t.reshape(-1) % self._e]
        return table

    def transform(self, w: np.ndarray, parity: int | None = None) -> np.ndarray:
        """sum_i chi_j(u_i) w[i], u = structure.n_of_index, for every character
        j in index order; with parity = eta, for the parity-eta ones only.

        w has length phi along its last axis, leading axes being a batch.  The
        sum is one in-place inverse DFT of w over the exponent grid, split by
        _prime_power_split.  With a parity, real w on a cyclic group takes the
        fold of the module docstring; otherwise the parity is selected from
        the unsplit grid.  Every route computes in w's own complex dtype, so
        longdouble weights come back as clongdouble.
        """
        w = np.asarray(w)
        if w.shape[-1:] != (self.phi,):
            raise DomainError(f"weight vector must have length phi(q) = {self.phi}")
        if parity not in (None, 0, 1):
            raise DomainError(f"parity must be 0, 1 or None; got {parity!r}")
        batch = w.shape[:-1]
        if parity is not None and len(self._dims) == 1 and not np.iscomplexobj(w):
            h = self.phi // 2
            f = w[..., :h] - w[..., h:] if parity else w[..., :h] + w[..., h:]
            n = 2 * h if parity else h
            r = np.fft.rfft(f, n)[..., parity::1 + parity]
            return np.concatenate(
                [r.conj(), r[..., 1 - parity:h + 1 - parity - r.shape[-1]][..., ::-1]], axis=-1)
        perm, dims, out = ((None, self._dims, self.parity_index(parity)) if parity is not None
                           else self._prime_power_split or (None, self._dims, None))
        # a buffer of our own, never the caller's w (freed here if a temporary)
        dtype = np.result_type(w, complex)
        z = w.astype(dtype) if perm is None else w[..., perm].astype(dtype, copy=False)
        del w
        z = z.reshape(batch + dims)
        if dims:  # in place, one phi-wide buffer (out= needs numpy >= 2.0)
            np.fft.ifftn(z, axes=range(-len(dims), 0), norm="forward", out=z)
        return z.reshape(batch + (-1,)) if out is None else z.reshape(batch + (-1,))[..., out]

    def character_sums(self, w: np.ndarray, parity: int | None = None
                       ) -> tuple[np.ndarray, float | np.ndarray]:
        """(values, err): values = transform(w, parity) and, per leading row of
        w, err = rounding_bound(phi, sum |w|) on each value (the parity fold's
        extra rounding included: log2 phi = log2(phi / 2) + 1); a float for 1-D
        w.  Without a parity, rows of real weights come back as exact conjugate
        pairs, v[conjugation] = conj v (a multi-axis FFT of real input is not;
        the fold's mirror is), by their mean with the conjugated permutation,
        charged eps max |v|.  transform receives the only reference to w, so
        temporary weights are freed once read.
        """
        w = np.asarray(w)
        mass = np.abs(w).sum(axis=-1).reshape(-1)
        paired = () if parity is not None else (
            np.flatnonzero(~np.any(w.imag, axis=-1)) if np.iscomplexobj(w) else range(mass.size))
        hand = [w]
        del w
        values = self.transform(hand.pop(), parity)
        err = rounding_bound(self.phi, mass)
        rows = values.reshape(-1, values.shape[-1])
        for k in paired:
            conj = self.conjugate(rows[k])
            rows[k] += np.conjugate(conj, out=conj)
            rows[k] /= 2
            del conj  # not alive beside the |v| temporary
            err[k] += _EPS * np.abs(rows[k]).max()
        return values, err.reshape(values.shape[:-1]) if values.ndim > 1 else float(err[0])

    @cached_property
    def _prime_power_split(self) -> tuple[np.ndarray, tuple[int, ...], np.ndarray] | None:
        """(perm, dims, out): the Good-Thomas split of every cyclic component
        into its prime-power factors P (d = prod P); None if none splits.

        On the input side component l's exponent is m = sum_P (d/P) m_P mod d,
        so perm[flat (m_P)] is the unit index of prod_l g_l^{m_l}; then
        exp(2 pi i j m / d) = prod_P exp(2 pi i (j mod P) m_P / P), and
        character j's value sits at the flat position of (j_l mod P) over
        every factor: out[j].
        """
        comps = [[p ** e for p, e in factorize(d).factors] for d in self._dims]
        dims = tuple(P for ps in comps for P in ps)
        if dims == self._dims:
            return None
        # int32 maps built from broadcast int32 ranges: phi < q < 2^31
        split = iter(np.ix_(*(np.arange(P, dtype=np.int32) for P in dims)))
        perm = 0
        for d, ps in zip(self._dims, comps):
            perm = perm * d + sum(d // P * next(split) for P in ps) % d
        out = 0
        for j, ps in zip(np.ix_(*(np.arange(d, dtype=np.int32) for d in self._dims)), comps):
            for P in ps:
                out = out * P + j % P
        return perm.reshape(-1), dims, out.reshape(-1)


def build_group(q: int) -> CharacterGroup:
    """Character group mod q (q >= 1)."""
    return CharacterGroup(q)


class Character:
    """One Dirichlet character mod q; cheap handle onto its group's tables."""

    __slots__ = ("group", "index", "exponents")

    def __init__(self, group: CharacterGroup, index: int, exponents: tuple[int, ...]):
        self.group = group
        self.index = index
        self.exponents = exponents

    @property
    def q(self) -> int:
        return self.group.q

    @property
    def is_even(self) -> bool:
        return self.group.parity_bits[self.index] == 0

    @property
    def parity(self) -> str:
        return "even" if self.is_even else "odd"

    @property
    def conductor(self) -> int:
        return int(self.group.conductors[self.index])

    @property
    def is_primitive(self) -> bool:
        return bool(self.group.primitive_mask[self.index])

    @property
    def is_trivial(self) -> bool:
        return self.index == 0

    @property
    def order(self) -> int:
        return int(self.group.orders[self.index])

    def root_exponent(self, n: int) -> int | None:
        """t with chi(n) = exp(2 pi i t / e), or None when gcd(n, q) > 1."""
        g = self.group
        i = int(g.structure.index_of_n[n % g.q])
        if i < 0:
            return None
        m = np.unravel_index(i, g._dims)
        return sum(int(ml) * j * (g._e // d) for ml, j, d in zip(m, self.exponents, g._dims)) % g._e

    def value(self, n: int) -> complex:
        t = self.root_exponent(n)
        return 0j if t is None else complex(self.group._roots[t])

    def value_table(self) -> np.ndarray:
        return self.group.value_table(self.index)

    def conjugate(self) -> "Character":
        return self.group.char(self.group.conjugate_index(self.index))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Character) and other.q == self.q
                and other.exponents == self.exponents)

    def __hash__(self) -> int:
        return hash((self.q, self.exponents))

    def __repr__(self) -> str:
        return f"Character(q={self.q}, exponents={self.exponents})"


def gauss_sum(chi: Character) -> ComplexApprox:
    """Gauss sum tau(chi) = sum_a chi(a) e^{2 pi i a / q}."""
    q = chi.q
    vals = chi.value_table()
    e = np.exp(2j * np.pi * np.arange(q) / q)
    v = complex(np.dot(vals, e))
    return ComplexApprox(v, 8 * _EPS * max(q, 1))
