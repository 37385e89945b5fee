"""Text notation for states: sums of weighted basis kets and mixtures.

Grammar (whitespace insignificant):

    state   := sum | "mix{" wterm ("," wterm)* "}"
    wterm   := number ":" sum
    sum     := term (("+"|"-") term)*
    term    := [number "*"] basis | number
    basis   := "|" [01]{3} ">"
    number  := decimal, optionally "i"-suffixed, or "sqrt(x)" / "1/sqrt(x)"

StateSpec normalizes each superposition and checks the mixture weights
(never rescaled) once the whole text has parsed. render prints each real
or imaginary part by one rule that parse_state inverts: left out exactly
when its magnitude prints as 0.0, a bare ket (1i* if imaginary) exactly
when it prints as 1.0."""
from __future__ import annotations

import re

import numpy as np

from .errors import InvalidWeights, KetSyntaxError
from .states import StateSpec

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<mix>mix\{)
  | (?P<basis>\|[01]{3}>)
  | (?P<number>(?:1/)?sqrt\(\s*\d+(?:\.\d*)?\s*\)|(?:\d+\.?\d*|\.\d+)i?)
  | (?P<op>[+\-*:,}])
""", re.VERBOSE)


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None and text[pos] == "|":
            raise KetSyntaxError(
                "malformed basis ket: a basis ket is '|' followed by three "
                "0/1 digits and '>'", _byte_offset(text, pos))
        if m is None:
            raise KetSyntaxError(
                f"unexpected character {text[pos]!r}", _byte_offset(text, pos))
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), _byte_offset(text, pos)))
        pos = m.end()
    tokens.append(("end", "", _byte_offset(text, pos)))
    return tokens


def _number_value(text: str, offset: int) -> complex:
    with np.errstate(divide="ignore", invalid="ignore"):
        if text.startswith("1/sqrt("):
            value = complex(1.0 / np.sqrt(float(text[7:-1])))
        elif text.startswith("sqrt("):
            value = complex(np.sqrt(float(text[5:-1])))
        elif text.endswith("i"):
            value = 1j * float(text[:-1])
        else:
            value = complex(float(text))
    if not np.isfinite(value):
        raise KetSyntaxError("coefficient is not a finite number", offset)
    return value


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise KetSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.take()
        if kind != "op" or text != op:
            raise KetSyntaxError(f"expected {op!r}, found {text!r}", off)

    # state := sum | "mix{" wterm ("," wterm)* "}"
    def state(self) -> StateSpec:
        if self.peek()[0] == "mix":
            self.take()
            pairs = [self.wterm()]
            while self.peek()[:2] == ("op", ","):
                self.take()
                pairs.append(self.wterm())
            self.expect_op("}")
            self.take("end")
            return StateSpec.mixture(pairs)
        amps = self.sum()
        self.take("end")
        return StateSpec.pure(amps)

    def wterm(self):
        sign = 1.0
        if self.peek()[:2] == ("op", "-"):
            self.take()
            sign = -1.0
        kind, text, off = self.take("number")
        w = sign * _number_value(text, off)
        if w.imag != 0:
            raise InvalidWeights(f"mixture weight {text} is not a real number")
        self.expect_op(":")
        return (w.real, self.sum())

    def sum(self) -> np.ndarray:
        amps = np.zeros(8, dtype=complex)
        sign = 1.0
        # leading minus accepted as shorthand for 0 - term
        if self.peek()[:2] == ("op", "-"):
            self.take()
            sign = -1.0
        elif self.peek()[:2] == ("op", "+"):
            self.take()
        self.term(amps, sign)
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            sign = 1.0 if self.take()[1] == "+" else -1.0
            self.term(amps, sign)
        return amps

    def term(self, amps: np.ndarray, sign: float):
        kind, text, off = self.peek()
        if kind == "number":
            self.take()
            if self.peek()[:2] == ("op", "*"):
                self.take()
                bk, bt, boff = self.take("basis")
                amps[int(bt[1:4], 2)] += sign * _number_value(text, off)
                return
            raise KetSyntaxError(
                "a bare number is not a state; multiply a basis ket", off)
        if kind == "basis":
            self.take()
            amps[int(text[1:4], 2)] += sign
            return
        raise KetSyntaxError(f"expected a term, found {text!r}", off)


def parse_state(expr: str) -> StateSpec:
    """Parse a ket expression or mixture into a StateSpec."""
    return _Parser(expr).state()


def _fmt_number(x: float) -> str:
    out = repr(round(float(x), 15))
    if "e" in out or "E" in out:
        out = f"{float(x):.15f}".rstrip("0")
    return out


def _render_sum(amps: np.ndarray) -> str:
    parts = []
    for idx in range(8):
        a = amps[idx]
        basis = f"|{idx >> 2 & 1}{idx >> 1 & 1}{idx & 1}>"
        for value, suffix in ((a.real, ""), (a.imag, "i")):
            mag = _fmt_number(abs(value))
            if mag == "0.0":
                continue
            coeff = f"{mag}{suffix}*"
            if mag == "1.0":
                coeff = "1i*" if suffix else ""
            parts.append(("-" if value < 0 else "+", f"{coeff}{basis}"))
    first_sign, first = parts[0]
    text = (first if first_sign == "+" else f"-{first}")
    for sign, part in parts[1:]:
        text += f" {sign} {part}"
    return text


def render(spec: StateSpec) -> str:
    """Pretty-print a StateSpec so that parse_state round-trips it."""
    if spec.is_pure:
        return _render_sum(spec.ket)
    inner = ", ".join(
        f"{_fmt_number(w)}: {_render_sum(k)}" for w, k in spec.components())
    return f"mix{{{inner}}}"
