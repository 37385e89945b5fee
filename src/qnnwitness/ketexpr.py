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


def parse_state(expr: str) -> StateSpec:
    """Parse a ket expression or mixture into a StateSpec."""
    tokens = _tokenize(expr)
    pos = 0

    def take(kind=None, text=None):
        nonlocal pos
        tok = tokens[pos]
        if kind not in (None, tok[0]) or text not in (None, tok[1]):
            want = kind if text is None else repr(text)
            raise KetSyntaxError(f"expected {want}, found {tok[1]!r}", tok[2])
        pos += 1
        return tok

    def sign(signs="+-"):
        """-1.0 or 1.0 if the next token is one of signs, which it takes;
        None if it is not."""
        if tokens[pos][0] != "op" or tokens[pos][1] not in signs:
            return None
        return -1.0 if take()[1] == "-" else 1.0

    def ket() -> np.ndarray:
        amps = np.zeros(8, dtype=complex)
        # leading minus accepted as shorthand for 0 - term
        s = sign() or 1.0
        while s is not None:
            kind, text, offset = take()
            if kind == "basis":
                amps[int(text[1:4], 2)] += s
            elif kind != "number":
                raise KetSyntaxError(f"expected a term, found {text!r}", offset)
            elif take()[1] != "*":
                raise KetSyntaxError(
                    "a bare number is not a state; multiply a basis ket", offset)
            else:
                basis = take("basis")[1]
                amps[int(basis[1:4], 2)] += s * _number_value(text, offset)
            s = sign()
        return amps

    if tokens[0][0] != "mix":
        amps = ket()
        take("end")
        return StateSpec.pure(amps)
    pairs = []
    while not pairs or tokens[pos][1] == ",":
        take()  # "mix{", then each ","
        w_sign = sign("-") or 1.0
        _, text, offset = take("number")
        w = w_sign * _number_value(text, offset)
        if w.imag != 0:
            raise InvalidWeights(f"mixture weight {text} is not a real number")
        take(text=":")
        pairs.append((w.real, ket()))
    take(text="}")
    take("end")
    return StateSpec.mixture(pairs)


def _fmt_number(x: float) -> str:
    out = repr(round(float(x), 15))
    if "e" in out or "E" in out:
        out = f"{float(x):.15f}".rstrip("0")
    return out


def _render_sum(amps: np.ndarray) -> str:
    text = ""
    for idx in range(8):
        basis = f"|{idx >> 2 & 1}{idx >> 1 & 1}{idx & 1}>"
        for value, suffix in ((amps[idx].real, ""), (amps[idx].imag, "i")):
            mag = _fmt_number(abs(value))
            if mag == "0.0":
                continue
            coeff = f"{mag}{suffix}*"
            if mag == "1.0":
                coeff = "1i*" if suffix else ""
            text += f"{' - ' if value < 0 else ' + '}{coeff}{basis}"
    # the first part's sign is a bare "-", or nothing for "+"
    return text[3:] if text[1] == "+" else f"-{text[3:]}"


def render(spec: StateSpec) -> str:
    """Pretty-print a StateSpec so that parse_state round-trips it."""
    if spec.is_pure:
        return _render_sum(spec.ket)
    inner = ", ".join(
        f"{_fmt_number(w)}: {_render_sum(k)}" for w, k in spec.components())
    return f"mix{{{inner}}}"
