"""README's fenced ``python -m repro…`` commands name real things (ROADMAP 6b).

Every such command inside a fenced block of ``README.md`` is run under
``--help`` — the module's own ``main``, the sub-command kept, everything
else replaced by ``--help`` — and must exit 0; every ``--flag`` the README
passes must be one that help text lists.  argparse stops at ``--help``
before it would complain about a later flag, which is why the flags are
checked against the text rather than by exit status alone.  Nothing is
simulated, so the whole file costs well under a second.
"""

import importlib
import re
import shlex
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

#: modules whose first positional argument is a sub-command with its own flags
SUBCOMMAND_CLIS = {"repro.bench", "repro.obs"}


def fenced_commands(text: str) -> list[tuple[int, list[str]]]:
    """``(line number, argv)`` of each ``python -m repro…`` line inside a fence."""
    commands, fenced = [], False
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif fenced and re.search(r"\bpython3? -m repro\b", line):
            argv = shlex.split(line.lstrip("$ "), comments=True)
            commands.append((number, argv[argv.index("-m") + 1 :]))
    return commands


COMMANDS = fenced_commands(README.read_text())


def _main_of(module: str):
    try:
        return importlib.import_module(f"{module}.__main__").main
    except ModuleNotFoundError:
        return importlib.import_module(module).main


def _help_text(argv: list[str], capsys) -> str:
    try:
        status = _main_of(argv[0])(argv[1:] + ["--help"])
    except SystemExit as exit_:  # argparse leaves through sys.exit
        status = exit_.code
    captured = capsys.readouterr()
    assert status == 0, f"{' '.join(argv)} --help: exit {status}\n{captured.err}"
    return captured.out


def test_the_readme_still_has_fenced_commands_to_check():
    modules = {argv[0] for _line, argv in COMMANDS}
    assert {"repro.bench", "repro.obs"} <= modules, modules


@pytest.mark.parametrize(
    "line, argv", COMMANDS, ids=[f"L{line}:{' '.join(argv[:2])}" for line, argv in COMMANDS]
)
def test_fenced_command_names_a_real_subcommand_and_real_flags(line, argv, capsys):
    module, args = argv[0], argv[1:]
    kept = args[:1] if module in SUBCOMMAND_CLIS and args and not args[0].startswith("-") else []
    text = _help_text([module, *kept], capsys)
    for flag in (arg.partition("=")[0] for arg in args if arg.startswith("--")):
        assert re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text), (
            f"README.md:{line}: {flag} is not a flag of `python -m {' '.join([module, *kept])}`"
        )


def test_an_unknown_subcommand_or_flag_would_be_caught(capsys):
    with pytest.raises(AssertionError, match="exit 2"):
        _help_text(["repro.bench", "fig99"], capsys)
    text = _help_text(["repro.bench", "fig14"], capsys)
    assert "--scale" in text and not re.search(r"(?<![\w-])--scal(?![\w-])", text)
