import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qnnwitness.errors import InvalidWeights, KetSyntaxError, ZeroVector
from qnnwitness.ketexpr import parse_state, render
from qnnwitness.states import StateSpec, mix

S2 = 1.0 / np.sqrt(2.0)


def ket(expr):
    spec = parse_state(expr)
    assert spec.is_pure
    return spec.ket


def test_single_basis_ket():
    psi = ket("|101>")
    assert psi[5] == 1.0 and np.count_nonzero(psi) == 1


def test_superposition_auto_normalizes():
    psi = ket("|000> + |111>")
    assert psi[0] == pytest.approx(S2) and psi[7] == pytest.approx(S2)
    # scaling the whole expression changes nothing
    assert np.allclose(ket("3*|000> + 3*|111>"), psi)


def test_sqrt_and_reciprocal_sqrt_coefficients():
    psi = ket("sqrt(0.5)*|000> + 1/sqrt(2)*|111>")
    assert psi[0] == pytest.approx(S2) and psi[7] == pytest.approx(S2)


def test_imaginary_coefficients():
    psi = ket("|000> + 1i*|111>")
    assert psi[7] == pytest.approx(1j * S2)
    psi = ket("|000> - 0.5i*|100>")
    assert psi[4].imag < 0


def test_leading_minus():
    psi = ket("-|000> + |111>")
    assert psi[0] == pytest.approx(-S2)


def test_mixture_parses_and_checks_weights():
    spec = parse_state("mix{0.5: |000>, 0.5: |111>}")
    assert not spec.is_pure
    rho = mix(spec)
    assert rho[0, 0] == pytest.approx(0.5) and rho[7, 7] == pytest.approx(0.5)

    with pytest.raises(InvalidWeights, match=r"sum to 0\.6, not 1"):
        parse_state("mix{0.3: |000>, 0.3: |111>}")
    with pytest.raises(InvalidWeights, match="negative mixture weight -0.5"):
        parse_state("mix{1.5: |000>, -0.5: |111>}")
    with pytest.raises(InvalidWeights, match="0.5i is not a real number"):
        parse_state("mix{0.5i: |000>, 0.5: |111>}")
    # the weights are checked once the whole text has parsed
    with pytest.raises(KetSyntaxError):
        parse_state("mix{1.5: |000>, -0.5: |11>}")


def test_zero_component_is_refused_after_the_text_parses():
    # StateSpec normalizes the components, so a text that does not parse
    # is a syntax error even when one of its components is zero
    with pytest.raises(KetSyntaxError):
        parse_state("mix{0.5: 0*|000>, 0.5: |111>")
    with pytest.raises(ZeroVector):
        parse_state("mix{0.5: 0*|000>, 0.5: |111>}")
    with pytest.raises(ZeroVector):
        parse_state("|000> - |000>")


def test_mixture_components_are_normalized_independently():
    spec = parse_state("mix{0.5: |000> + |001>, 0.5: |111>}")
    rho = mix(spec)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert rho[0, 0] == pytest.approx(0.25)


def test_bare_number_is_rejected():
    with pytest.raises(KetSyntaxError) as err:
        parse_state("|000> + 0.5")
    assert "bare number" in str(err.value)


def test_error_carries_byte_offset():
    with pytest.raises(KetSyntaxError) as err:
        parse_state("|000> + $")
    assert err.value.offset == 8


def test_malformed_basis_label():
    for text, offset in (("|00>", 0), ("|002>", 0), ("|0000>", 0),
                         ("|012>", 0), ("0.5*|00> + |111>", 4)):
        with pytest.raises(KetSyntaxError, match=r"a basis ket is '\|' "
                           r"followed by three 0/1 digits and '>'") as err:
            parse_state(text)
        assert err.value.offset == offset


def test_unterminated_mixture():
    with pytest.raises(KetSyntaxError):
        parse_state("mix{0.5: |000>, 0.5: |111>")


BASIS_MESSAGE = ("malformed basis ket: a basis ket is '|' followed by three "
                 "0/1 digits and '>'")


@pytest.mark.parametrize("text, kind, message, offset", [
    ("|000> + $", KetSyntaxError, "unexpected character '$'", 8),
    # a no-break space is one character and two bytes
    ("|000>\u00a0+ $", KetSyntaxError, "unexpected character '$'", 9),
    ("|00>", KetSyntaxError, BASIS_MESSAGE, 0),
    ("9" * 400 + "*|000>", KetSyntaxError,
     "coefficient is not a finite number", 0),
    ("1/sqrt(0)*|000>", KetSyntaxError,
     "coefficient is not a finite number", 0),
    ("0.5*", KetSyntaxError, "expected basis, found ''", 4),
    ("mix{|000>}", KetSyntaxError, "expected number, found '|000>'", 4),
    # a weight may carry a minus, never a plus
    ("mix{+1: |000>}", KetSyntaxError, "expected number, found '+'", 4),
    ("mix{0.5 |000>}", KetSyntaxError, "expected ':', found '|000>'", 8),
    ("mix{0.5: |000>, 0.5: |111>", KetSyntaxError, "expected '}', found ''",
     26),
    ("|000> |111>", KetSyntaxError, "expected end, found '|111>'", 6),
    ("mix{1: |000>}}", KetSyntaxError, "expected end, found '}'", 13),
    ("|000> + 0.5", KetSyntaxError,
     "a bare number is not a state; multiply a basis ket", 8),
    ("|000> + +", KetSyntaxError, "expected a term, found '+'", 8),
    ("mix{0.5i: |000>, 0.5: |111>}", InvalidWeights,
     "mixture weight 0.5i is not a real number", None),
])
def test_each_refusal_names_its_message_and_byte_offset(
        text, kind, message, offset):
    with pytest.raises(kind) as err:
        parse_state(text)
    assert type(err.value) is kind
    assert getattr(err.value, "offset", None) == offset
    suffix = "" if offset is None else f" (at offset {offset})"
    assert str(err.value) == message + suffix


def _small_parts(fill):
    """(3, 2, 8) parts, all fill except parts[0, 0, 0] = parts[0, 1, 0] = 1."""
    parts = np.full((3, 2, 8), fill)
    parts[0, :, 0] = 1.0
    return parts


@settings(max_examples=60, deadline=None)
@given(arrays(float, (3, 2, 8), elements=st.floats(-1.0, 1.0)),
       arrays(float, 3, elements=st.floats(0.0, 1.0)), st.integers(1, 3))
# 1 + 1i on |000> and fourteen small parts, each of which must print
@example(_small_parts(1e-12), np.ones(3), 1)
@example(_small_parts(1.2e-12), np.ones(3), 1)
def test_render_then_parse_gives_the_same_density(parts, raw_weights, n):
    """One component is a pure ket, two or three a mixture."""
    kets = parts[:n, 0] + 1j * parts[:n, 1]
    assume(np.linalg.norm(kets, axis=1).min() > 1e-3)
    assume(raw_weights[:n].sum() > 0.1)
    weights = raw_weights[:n] / raw_weights[:n].sum()
    spec = StateSpec.mixture(list(zip(weights, kets)))
    back = parse_state(render(spec))
    assert back.is_pure == spec.is_pure
    assert np.abs(mix(back) - mix(spec)).max() <= 1e-12


def test_render_round_trips_random_states():
    rng = np.random.default_rng(21)
    for _ in range(25):
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        spec = StateSpec.pure(raw)
        back = parse_state(render(spec))
        assert np.allclose(back.ket, spec.ket, atol=1e-12)


def test_render_round_trips_mixtures():
    rng = np.random.default_rng(22)
    kets = [rng.normal(size=8) for _ in range(3)]
    spec = StateSpec.mixture([(0.2, kets[0]), (0.3, kets[1]), (0.5, kets[2])])
    back = parse_state(render(spec))
    assert np.allclose(mix(back), mix(spec), atol=1e-12)


def test_render_uses_compact_unit_coefficients():
    text = render(parse_state("|010> - |100>"))
    assert "1*" not in text
    assert text.startswith("0.7") or text.startswith("-0.7")
