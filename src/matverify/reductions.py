"""Structural reduction gadgets, validated by brute-force desk-scale
oracles: Boolean product verification maps to a 3SUM instance, and the
product fingerprint maps to an arithmetic circuit for univariate identity
testing. Neither target problem is solved here beyond brute force."""

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, UsageError
from .field import FieldCtx, reduce_mod
from .matrix import IntMatrix, square_matrices

_PAIR_BUDGET = 10**7


def _boolean(m: IntMatrix, name: str) -> np.ndarray:
    d = m.data
    if not ((d == 0) | (d == 1)).all():
        raise UsageError(f"{name} must be a 0/1 matrix")
    return d


@dataclass(frozen=True)
class OnesCertificate:
    """Witnesses for the one-entries of C: least inner index k with
    A[i,k] = B[k,j] = 1, or the first row-major entry with no witness."""

    witnesses: dict[tuple[int, int], int]
    failure: tuple[int, int] | None

    @property
    def ok(self) -> bool:
        return self.failure is None


def bmm_ones_certificate(a, b, c) -> OnesCertificate:
    """Check every C[i,j] = 1 by exhibiting a product witness."""
    a, b, c, n = square_matrices(a, b, c)
    av, bv, cv = _boolean(a, "A"), _boolean(b, "B"), _boolean(c, "C")
    witnesses: dict[tuple[int, int], int] = {}
    for i in range(n):
        for j in range(n):
            if cv[i, j] != 1:
                continue
            hit = np.nonzero(av[i] & bv[:, j])[0]
            if hit.size == 0:
                return OnesCertificate(witnesses, (i, j))
            witnesses[(i, j)] = int(hit[0])
    return OnesCertificate(witnesses, None)


@dataclass(frozen=True)
class ThreeSumInstance:
    """Sets S1, S2, S3 with block base W = 2(n+1): s1 + s2 = s3 is solvable
    iff some zero entry of C should have been a one."""

    s1: tuple[int, ...]
    s2: tuple[int, ...]
    s3: tuple[int, ...]
    base: int
    zero_map: dict[int, tuple[int, int]]  # S3 element -> zero position of C


def bmm_zeroes_to_3sum(a, b, c) -> ThreeSumInstance:
    """Encode the zero-entries check of a Boolean product as 3SUM.

    Indices are 1-based inside the encodings so that all elements stay
    positive and decodings are unique: A-ones become iW^2 + k, B-ones
    become jW - k, and each zero of C becomes the target iW^2 + jW.
    """
    a, b, c, n = square_matrices(a, b, c)
    av, bv, cv = _boolean(a, "A"), _boolean(b, "B"), _boolean(c, "C")
    w = 2 * (n + 1)
    s1 = {
        (i + 1) * w * w + (k + 1)
        for i, k in zip(*np.nonzero(av))
    }
    s2 = {
        (j + 1) * w - (k + 1)
        for k, j in zip(*np.nonzero(bv))
    }
    zero_map = {}
    s3 = set()
    for i, j in zip(*np.nonzero(cv == 0)):
        key = (i + 1) * w * w + (j + 1) * w
        s3.add(key)
        zero_map[key] = (int(i), int(j))
    return ThreeSumInstance(
        s1=tuple(sorted(s1)),
        s2=tuple(sorted(s2)),
        s3=tuple(sorted(s3)),
        base=w,
        zero_map=zero_map,
    )


def three_sum_bruteforce(s1, s2, s3) -> bool:
    """Desk-scale oracle: does some s1 + s2 land in S3?"""
    s1, s2 = list(s1), list(s2)
    if len(s1) * len(s2) > _PAIR_BUDGET:
        raise ResourceLimitError("3SUM brute force beyond the pair budget")
    lookup = set(s3)
    return any(x + y in lookup for x in s1 for y in s2)


def serialize_three_sum(inst: ThreeSumInstance) -> str:
    return "\n".join(
        " ".join(str(v) for v in s) for s in (inst.s1, inst.s2, inst.s3)
    ) + "\n"


@dataclass(frozen=True)
class Gate:
    op: str          # INPUT | CONST | ADD | MUL
    a: int = -1
    b: int = -1
    value: int = 0


@dataclass(frozen=True)
class Circuit:
    """Acyclic gate list over F_p; wire_count counts operand edges."""

    gates: tuple[Gate, ...]
    output: int
    wire_count: int
    degree: int
    modulus: int


class _Builder:
    def __init__(self, p: int):
        self.p = p
        self.gates: list[Gate] = []
        self.wires = 0

    def input_gate(self) -> int:
        self.gates.append(Gate("INPUT"))
        return len(self.gates) - 1

    def const(self, v: int) -> int:
        self.gates.append(Gate("CONST", value=int(v) % self.p))
        return len(self.gates) - 1

    def op(self, name: str, a: int, b: int) -> int:
        self.gates.append(Gate(name, a=a, b=b))
        self.wires += 2
        return len(self.gates) - 1


def _horner_chain(bld: _Builder, coeffs, x_gate: int) -> int:
    """Gates evaluating sum_s coeffs[s] * X^s at the value of x_gate."""
    acc = bld.const(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = bld.op("MUL", acc, x_gate)
        acc = bld.op("ADD", acc, bld.const(c))
    return acc


def _power_chain(bld: _Builder, x_gate: int, e: int) -> int:
    """Gates for X^e by square and multiply (e >= 1)."""
    cur = x_gate
    for bit in bin(e)[3:]:
        cur = bld.op("MUL", cur, cur)
        if bit == "1":
            cur = bld.op("MUL", cur, x_gate)
    return cur


def emit_upit_circuit(a, b, ctx: FieldCtx) -> Circuit:
    """Arithmetic circuit computing the product fingerprint of AB:
    sum_k q_k(X) * r_k(X^n), with Horner chains per inner index and one
    shared repeated-squaring chain for X^n."""
    a, b, n = square_matrices(a, b)
    p = ctx.p
    av = reduce_mod(a.data, p)
    bv = reduce_mod(b.data, p)

    bld = _Builder(p)
    x = bld.input_gate()
    xn = x if n == 1 else _power_chain(bld, x, n)
    total = None
    for k in range(n):
        qk = _horner_chain(bld, [int(v) for v in av[:, k]], x)
        rk = _horner_chain(bld, [int(v) for v in bv[k, :]], xn)
        term = bld.op("MUL", qk, rk)
        total = term if total is None else bld.op("ADD", total, term)
    return Circuit(
        gates=tuple(bld.gates),
        output=total,
        wire_count=bld.wires,
        degree=n * n - 1,
        modulus=p,
    )


def eval_circuit(circ: Circuit, x: int, ctx: FieldCtx) -> int:
    """Topological evaluation over F_p."""
    p = ctx.p
    vals: list[int] = []
    for idx, gate in enumerate(circ.gates):
        if gate.op == "INPUT":
            vals.append(int(x) % p)
        elif gate.op == "CONST":
            vals.append(gate.value % p)
        elif gate.op in ("ADD", "MUL"):
            if not (0 <= gate.a < idx and 0 <= gate.b < idx):
                raise UsageError(f"gate {idx} references an invalid operand")
            if gate.op == "ADD":
                vals.append((vals[gate.a] + vals[gate.b]) % p)
            else:
                vals.append(vals[gate.a] * vals[gate.b] % p)
        else:
            raise UsageError(f"gate {idx} has unknown op {gate.op!r}")
    return vals[circ.output]


def serialize_circuit(circ: Circuit) -> str:
    lines = [
        f"# wires={circ.wire_count} degree={circ.degree} modulus={circ.modulus}"
    ]
    for idx, gate in enumerate(circ.gates):
        if gate.op == "INPUT":
            lines.append(f"g{idx} = INPUT X")
        elif gate.op == "CONST":
            lines.append(f"g{idx} = CONST {gate.value}")
        else:
            lines.append(f"g{idx} = {gate.op} g{gate.a} g{gate.b}")
    lines.append(f"OUT g{circ.output}")
    return "\n".join(lines) + "\n"
