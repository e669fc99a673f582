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

computed for all phi(q) characters at once by one in-place inverse FFT in
one phi-wide buffer, one `np.fft.ifft` call per grid axis.  Real w with a
parity on a cyclic group of order d = 2h (q prime, p^e, 2 p^e or 4) is folded
in front of it: u_m = g^m, -1 = g^h and chi_j has parity j mod 2, so
chi_{2k+eta} is entry k of the length-h inverse DFT of
(w_m + (-1)^eta w_{m+h}) e^{2 pi i eta m / d} (for eta = 1 an odd-frequency
DFT, by a twiddle twist).  All else runs over the group's grid, its cyclic
components.  Each cyclic length L, a component's order or the fold's h, runs
on the Good-Thomas grid (L / p, p) when L >= SPLIT_FLOOR is not a prime power
and its largest prime p has p^2 > L (a length numpy's pocketfft may run by
Bluestein), else unsplit: q = 100003 transforms a (42, 2381) array, its fold
a (21, 2381) one.  A parity is read off the grid's output by `parity_index`
(eta::2 on a cyclic group).

Every table is one C-order outer product (`_outer`) of 1-D tables, one per
component or per prime power: parity bits by XOR, orders by lcm, the
quadratic-or-trivial mask by AND, a character's values by adding root
exponents.  None is built as a phi x r matrix or reads a length-q table.

`character_sums(w, parity)` is the step both theta and L take: the values
of `transform` plus, per row, one bound on their rounding and the weights'
own, rounding_bound(phi, sum |w|) + eps sum |w|.  Without a parity it also
makes each row of real weights exactly conjugate-symmetric, v[conjugation]
= conj v, by a mean charged eps max |v|, since a multi-axis FFT of real
input is not; with a parity it makes the real characters' values of real
weights exactly real.  The Gauss sums of all characters are one such step,
cached as `gauss_sums`: the character sums of e(u / q) on the units, whose
bound adds the weights' phase rounding, 4 eps phi, to character_sums' own;
`gauss_sum(chi)` is entry chi.index of it.

A conductor is the product of local conductors, one per p^e || q, read off
the exponents on that prime's components: p^{1 + v_p(o)} for odd p and local
order o > 1; 4 when p^e = 4 and chi is nontrivial there; 1 for 2 || q; for
2^e, e >= 3, -3 (not the generator 3) spans the units = 1 mod 4: 4 o if
chi(-3) has order o > 1, else 4 or 1 by parity.  That rule is written once,
as one local table per p^e (`_local_conductors`): `conductors` is their outer
product, the primitive mask the outer AND of local conductor == p^e.  Every
table is O(phi(q)) memory.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

import numpy as np

from .errors import DomainError
from .numtheory import GroupStructure, factorize, group_structure
from .specfun import TWO_PI, ComplexApprox
from .summation import rounding_bound

__all__ = ["FAMILIES", "Character", "CharacterGroup", "build_group", "gauss_sum"]

_EPS = np.finfo(float).eps

THETA_FAMILIES = ("even", "odd")  # primitive characters of one parity
L_FAMILIES = ("star", "nonquadratic", "star-nonquadratic")
FAMILIES = THETA_FAMILIES + L_FAMILIES


class CharacterGroup:
    """All Dirichlet characters mod q, with batch tables and transforms."""

    def __init__(self, q: int):
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
    def parity_bits(self) -> np.ndarray:
        """0 for even characters (chi(-1) = 1), 1 for odd, all characters."""
        # chi(-1) = prod_l exp(2 pi i j_l m_l / d_l) with m_l = 0 or d_l / 2
        return _outer(np.bitwise_xor, [np.arange(d) & (m > 0) for d, m in
                                       zip(self._dims, self.structure.minus_one)])

    def parity_index(self, parity: int) -> slice | np.ndarray:
        """Indexer of the parity-eta characters along an index-ordered axis;
        on a cyclic group chi_j has parity j mod 2, so transform's fold is eta::2."""
        return slice(parity, None, 2) if len(self._dims) == 1 else self.parity_bits == parity

    @cached_property
    def orders(self) -> np.ndarray:
        """Multiplicative order of each character."""
        return _outer(np.lcm, [d // np.gcd(np.arange(d), d) for d in self._dims])

    def _local_conductors(self) -> Iterator[tuple[int, np.ndarray]]:
        """(p^e, local conductor of each exponent tuple on p's components, in
        C order) for each p^e || q (see the module docstring); [1] for 2 || q,
        which has no component."""
        for p, e in self.structure.factorization.factors:
            # chi(g) = exp(2 pi i x / ord g), x != 0, gives p^e / gcd(x, p-part of
            # ord g): p^{1 + v_p(o)} for odd p, 4 o for g = -3 (o = order of chi(g))
            if p != 2:
                d = p ** e - p ** (e - 1)
                loc = np.full(d, p) if e == 1 else p ** e // np.gcd(np.arange(d), p ** (e - 1))
                loc[0] = 1  # chi trivial on p's component
            elif e < 3:  # (Z/2Z)* is trivial, (Z/4Z)* = <-1>
                loc = np.array([1, 4][:e])
            else:  # exponents s on -1 and j on 3
                d = 2 ** (e - 2)
                s, j = np.ix_(np.arange(2), np.arange(d))
                x = (s * (d // 2) + j) % d  # exponent of chi(-3)
                loc = np.where(x > 0, 2 ** e // np.gcd(x, d), np.where(s == 1, 4, 1)).reshape(-1)
            yield p ** e, loc

    @cached_property
    def conductors(self) -> np.ndarray:
        """Conductor of each character: the product of its local conductors."""
        return _outer(np.multiply, [loc for _, loc in self._local_conductors()])

    @cached_property
    def primitive_mask(self) -> np.ndarray:
        """conductors == q, as the outer AND over p^e || q of local conductor
        == p^e, with no product formed."""
        return _outer(np.logical_and, [loc == pe for pe, loc in self._local_conductors()])

    @cached_property
    def quadratic_or_trivial_mask(self) -> np.ndarray:
        """chi^2 = trivial character (order 1 or 2): 2 j_l = 0 mod d_l on
        every component."""
        return _outer(np.logical_and, [2 * np.arange(d) % d == 0 for d in self._dims])

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
        t = _outer(np.add, [np.arange(d) * (j * (self._e // d)) % self._e
                            for d, j in zip(self._dims, self.char(index).exponents)])
        table = np.zeros(self.q, dtype=complex)
        table[self.structure.n_of_index] = self._roots[t % self._e]
        return table

    def transform(self, w: np.ndarray, parity: int | None = None) -> np.ndarray:
        """sum_i chi_j(u_i) w[i], u = structure.n_of_index, for every character
        j in index order; with parity = eta, for the parity-eta ones only.

        w has length phi along its last axis, leading axes being a batch.  Real
        w with a parity on a cyclic group is folded (odd: and twisted) to length
        phi / 2 as in the module docstring and runs over _fold; all else runs
        over _grid, a parity read off its output map, so there transform(w, eta)
        == transform(w)[parity_index(eta)] bit for bit.  The one inverse DFT,
        one `ifft` per grid axis, runs in w's own complex dtype: longdouble
        weights come back as clongdouble.
        """
        w = np.asarray(w)
        if w.shape[-1:] != (self.phi,):
            raise DomainError(f"weight vector must have length phi(q) = {self.phi}")
        if parity not in (None, 0, 1):
            raise DomainError(f"parity must be 0, 1 or None; got {parity!r}")
        batch = w.shape[:-1]
        if parity is not None and len(self._dims) == 1 and not np.iscomplexobj(w):
            h = self.phi // 2  # chi_j(g^{m+h}) = (-1)^j chi_j(g^m): fold to length h
            w = w[..., :h] - w[..., h:] if parity else w[..., :h] + w[..., h:]
            if parity:  # chi_{2k+1}(g^m) = e^{2 pi i m / phi} e^{2 pi i k m / h}, m = b i + j
                b = int(np.sqrt(h)) + 1  # so the twist is an outer product of 2b roots
                e = np.exp(1j * (TWO_PI / self.phi * np.arange(b)[:, None] * [b, 1]).astype(
                    np.result_type(w, float)))
                w = w * np.outer(e[:, 0], e[:, 1]).reshape(-1)[:h]
            perm, dims, out = self._fold
        else:
            perm, dims, out = self._grid
            if parity is not None:
                out = self.parity_index(parity) if out is None else out[self.parity_index(parity)]
        # a buffer of our own, never the caller's w (freed here if a temporary)
        dtype = np.result_type(w, complex)
        z = w.astype(dtype) if perm is None else w[..., perm].astype(dtype, copy=False)
        del w
        z = z.reshape(batch + dims)
        for axis in range(-1, -len(dims) - 1, -1):  # in place, last axis first as ifftn
            np.fft.ifft(z, axis=axis, norm="forward", out=z)  # (out= needs numpy >= 2.0)
        return z.reshape(batch + (-1,)) if out is None else z.reshape(batch + (-1,))[..., out]

    def character_sums(self, w: np.ndarray, parity: int | None = None
                       ) -> tuple[np.ndarray, float | np.ndarray]:
        """(values, err): values = transform(w, parity) and, per leading row of
        w, err = rounding_bound(phi, sum |w|) + eps sum |w| on each value, the
        transform's rounding (a fold counts one level, the odd twist one
        twiddle level, then log2(phi / 2) levels) and the weights' own; a
        float for 1-D w.  Without a parity, rows of real weights come
        back as exact conjugate pairs, v[conjugation] = conj v (a multi-axis FFT
        of real input is not), by their mean with the conjugated permutation,
        charged eps max |v|.  With a parity, weights of real dtype get their
        real characters' (order <= 2) values exactly real, a projection onto
        the true value's line that adds no error.  transform receives the
        only reference to w, so temporary weights are freed once read.
        """
        w = np.asarray(w)
        mass = np.abs(w).sum(axis=-1).reshape(-1)
        real_dtype = not np.iscomplexobj(w)
        paired = () if parity is not None else (
            range(mass.size) if real_dtype else np.flatnonzero(~np.any(w.imag, axis=-1)))
        hand = [w]
        del w
        values = self.transform(hand.pop(), parity)
        err = rounding_bound(self.phi, mass) + _EPS * mass
        rows = values.reshape(-1, values.shape[-1])
        if parity is not None and real_dtype:  # on a cyclic group chi_0 and chi_{phi/2}
            at = ([j // 2 for j in (0, self.phi // 2) if j % 2 == parity] if len(self._dims) == 1
                  else self.quadratic_or_trivial_mask[self.parity_index(parity)])
            rows.imag[:, at] = 0.0
        for k in paired:
            conj = self.conjugate(rows[k])
            rows[k] += np.conjugate(conj, out=conj)
            rows[k] /= 2
            del conj  # not alive beside the |v| temporary
            err[k] += _EPS * np.abs(rows[k]).max()
        return values, err.reshape(values.shape[:-1]) if values.ndim > 1 else float(err[0])

    @cached_property
    def gauss_sums(self) -> tuple[np.ndarray, float]:
        """(values, err): tau(chi_j) = sum_a chi_j(a) e^{2 pi i a / q} for
        every character j in index order, the character_sums of the weights
        e(u / q) on the units u = n_of_index.  Each phase 2 pi u / q < 2 pi is
        formed in longdouble and rounded once to float64, off by at most
        pi eps; cos and sin add about eps each, so a weight is off by at most
        (pi + sqrt 2) eps < 5 eps.  character_sums charges eps sum |w| of
        that, and err adds the other 4 eps phi."""
        phase = (TWO_PI * self.structure.n_of_index / self.q).astype(float)
        values, err = self.character_sums(np.exp(1j * phase))
        return values, err + 4 * _EPS * self.phi

    @cached_property
    def _grid(self) -> tuple[np.ndarray | None, tuple[int, ...], np.ndarray | None]:
        """The transform's grid over the cyclic components: _good_thomas."""
        return _good_thomas(self._dims)

    @cached_property
    def _fold(self) -> tuple[np.ndarray | None, tuple[int, ...], np.ndarray | None]:
        """The grid of a cyclic group's length-phi/2 fold: _good_thomas."""
        return _good_thomas((self.phi // 2,))


SPLIT_FLOOR = 4096  # shortest cyclic length split: below it a prime scan's maps cost more


def _split(n: int) -> tuple[int, ...]:
    """The grid of a cyclic length n: (n / p, p) when n >= SPLIT_FLOOR is not
    a prime power and its largest prime p has p^2 > n, a length numpy's
    pocketfft may run by Bluestein; else (n,)."""
    if n < SPLIT_FLOOR:
        return (n,)
    fs = factorize(n).factors
    p = fs[-1][0]
    return (n // p, p) if len(fs) > 1 and p * p > n else (n,)


def _good_thomas(comps: tuple[int, ...]) -> tuple[np.ndarray | None, tuple[int, ...],
                                                  np.ndarray | None]:
    """(perm, dims, out): the grid of cyclic lengths comps, each split by
    _split, perm and out None if none is.

    On the input side length d's index is m = sum_P (d/P) m_P mod d over its
    factors P, so perm[flat (m_P)] is the C-order index of (m_l) over comps;
    then exp(2 pi i j m / d) = prod_P exp(2 pi i (j mod P) m_P / P), and
    entry j's value sits at the flat position of (j_l mod P) over every
    factor: out[j].
    """
    splits = [_split(d) for d in comps]
    dims = tuple(P for ps in splits for P in ps)
    if dims == comps:
        return None, dims, None
    # int32 maps built from broadcast int32 ranges: phi < q < 2^31
    split = iter(np.ix_(*(np.arange(P, dtype=np.int32) for P in dims)))
    perm = 0
    for d, ps in zip(comps, splits):
        perm = perm * d + sum(d // P * next(split) for P in ps) % d
    out = 0
    for j, ps in zip(np.ix_(*(np.arange(d, dtype=np.int32) for d in comps)), splits):
        for P in ps:
            out = out * P + j % P
    return perm.reshape(-1), dims, out.reshape(-1)


def _outer(ufunc: np.ufunc, tables: list[np.ndarray]) -> np.ndarray:
    """The C-order flat outer product under ufunc of 1-D tables, one per
    component or prime power: entry (i_1, ..., i_r) combines entry i_l of
    each table; [ufunc's identity] for none."""
    if not tables:  # q = 1, 2; numpy's lcm has no identity, 1 is its identity here
        return np.array([1 if ufunc.identity is None else ufunc.identity])
    out = tables[0]
    for t in tables[1:]:
        out = ufunc.outer(out, t).reshape(-1)
    return out


def build_group(q: int) -> CharacterGroup:
    """Character group mod q (q >= 1)."""
    return CharacterGroup(q)


def family_group(q: int, group: CharacterGroup | None = None) -> CharacterGroup:
    """The group mod q >= 3 that an all-character path runs in: group, its
    modulus checked, or else build_group(q)."""
    check_family_modulus(q)
    if group is not None and group.q != q:
        raise DomainError(f"group modulus {group.q} does not match q = {q}")
    return build_group(q) if group is None else group


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
    """Gauss sum tau(chi) = sum_a chi(a) e^{2 pi i a / q}: entry chi.index of
    the group's gauss_sums, with their bound."""
    values, err = chi.group.gauss_sums
    return ComplexApprox(complex(values[chi.index]), err)


def check_family_modulus(q: int) -> None:
    """DomainError unless q >= 3, the least modulus a moment is taken at."""
    if q < 3:
        raise DomainError(f"q must be >= 3; got {q}")


def check_modulus(q: int, chi: Character) -> None:
    """DomainError unless chi is a character mod q."""
    if chi.q != q:
        raise DomainError(f"character modulus {chi.q} does not match q = {q}")
