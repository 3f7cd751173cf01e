"""Every library error carries the CLI's exit code and stderr label for it."""
import pytest

from qsot import cli, errors
from qsot.errors import QsotError

EXIT_AND_LABEL = {
    "QsotError": (errors.EXIT_INTERNAL, "error"),
    "ParseError": (errors.EXIT_PARSE, "parse error"),
    "FaithfulnessError": (errors.EXIT_NUMERICAL, "numerical error"),
    "SingularityError": (errors.EXIT_NUMERICAL, "numerical error"),
    **{name: (errors.EXIT_VALIDATION, "validation error") for name in (
        "ValidationError", "ConstraintError", "ShapeMismatchError", "NotAStateError",
        "NotHermitianError", "ExtensionError", "UnsupportedFamilyError",
        "InapplicableError")},
}


def error_classes(cls: type = QsotError) -> list[type]:
    """``cls`` and every subclass of it, however deep."""
    return [cls, *(sub for child in cls.__subclasses__() for sub in error_classes(child))]


def test_the_exit_codes_resolve_on_the_cli():
    assert (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_PARSE, cli.EXIT_NUMERICAL,
            cli.EXIT_INTERNAL) == (0, 2, 3, 4, 5)


def test_every_error_class_is_in_the_table():
    assert sorted(cls.__name__ for cls in error_classes()) == sorted(EXIT_AND_LABEL)


@pytest.mark.parametrize("cls", error_classes(), ids=lambda cls: cls.__name__)
def test_main_exits_with_the_code_and_label_the_class_carries(cls, monkeypatch, capsys):
    assert (cls.exit_code, cls.label) == EXIT_AND_LABEL[cls.__name__]

    def failing(args):
        raise cls("the message")
    monkeypatch.setattr(cli, "cmd_certify", failing)
    assert cli.main(["certify"]) == cls.exit_code
    assert capsys.readouterr().err == f"{cls.label}: the message\n"
