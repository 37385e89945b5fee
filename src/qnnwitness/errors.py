"""Exception types shared across the package, the one reader and the type
checks of every JSON input file, the type check of a real-valued setting,
and the one writer of every output file."""
import csv
import json
import numbers
import sys

_JSON_KINDS = {float: "a number", int: "an integer", str: "a string",
               list: "an array", dict: "an object"}


def read_json(path):
    """The JSON document at path; malformed JSON is a ValueError naming it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None


def write_json(path, doc) -> None:
    """doc as JSON at path, indented by one space, with a final newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


def write_csv(path, header, rows) -> None:
    """The header row, then rows, as CSV at path; every row ends in \\n."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def json_value(value, kind: type, field: str):
    """value if it is a JSON value of kind (float: any number a float holds
    finitely, as json reads NaN, Infinity and 400-digit integers; neither
    number kind accepts a boolean), else a ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise ValueError(f"{field} must be {_JSON_KINDS[kind]}, "
                         f"got {value!r:.40}")
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{field} must be a finite number, got {value!r:.40}")
    return value


def real_setting(value, field: str):
    """value if it is a real number, else a ValueError naming the field;
    a bool is refused, although Python counts it as a number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{field} must be a real number, got {value!r:.40}")
    return value


def json_object(doc, what: str, fields) -> dict:
    """doc if it is a JSON object with no key outside fields, else a
    ValueError naming what, or the unknown key and the allowed ones."""
    for key in json_value(doc, dict, what):
        if key not in fields:
            raise ValueError(f"{what} has unknown field {key!r:.40}; "
                             f"allowed: {', '.join(fields)}")
    return doc


def json_field(doc: dict, key: str, kind: type):
    """json_value of the required field doc[key], which must be there."""
    if key not in doc:
        raise ValueError(f"required field {key} is missing")
    return json_value(doc[key], kind, key)


class QnnError(Exception):
    """Base class for all package-specific failures."""


class ImaginaryTraceError(QnnError, ValueError):
    """tr(rho O) has a non-negligible imaginary part; the state is corrupted."""


class ZeroVector(QnnError, ValueError):
    """Cannot normalize an all-zero amplitude vector."""


class NonFinite(QnnError, ValueError):
    """A value that must be a finite number is NaN or infinite."""


class InvalidWeights(QnnError, ValueError):
    """Mixture weights are negative or do not sum to one."""


class UnphysicalState(QnnError, ValueError):
    """A density matrix that is not Hermitian, of trace one and positive
    semidefinite."""


class UnknownState(QnnError, KeyError):
    """Catalog lookup for a name that is not defined."""


class ArityError(QnnError, TypeError):
    """Catalog state called with the wrong number of arguments."""


class DivergenceError(QnnError, RuntimeError):
    """RK4 stepped past its stability limit, or a training loss blew up."""


class CalibrationInconclusive(QnnError, RuntimeError):
    """Neither unit convention reproduces the reference outputs."""


class KetSyntaxError(QnnError, ValueError):
    """Ket expression failed to parse.

    The byte offset of the failure is stored on ``offset``.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset
