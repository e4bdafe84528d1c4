"""README's examples run and print what README says they print.

In the library example, a ``# -> value`` comment states the repr of the
expression on its line.  ``...`` in the value elides the rest of a
number, and the value may be followed by ``, commentary``.  Each
``$ fpcount ...`` example in the CLI block is followed by its exact
stdout, up to the next blank line.
"""

import re
import shlex
from pathlib import Path

import pytest

from fpcount.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
ARROW = re.compile(r"^(?P<expr>\S.*?)\s+# -> (?P<value>.*)$")


def _cli_examples() -> list[tuple[str, str]]:
    """(command, stdout) of each example in README's CLI block."""
    (block,) = re.findall(r"```text\n(.*?)```", README.read_text(), re.S)
    examples = []
    for chunk in re.sub(r"\\\n\s*", "", block).strip().split("\n\n"):
        command, out = chunk.split("\n", 1)
        examples.append((command, out + "\n"))
    return examples


def _states(text: str, value: str) -> bool:
    """Whether `value`, or its part before some ", ", matches `text`."""
    cuts = [len(value)] + [m.start() for m in re.finditer(", ", value)]
    for cut in cuts:
        pattern = ".*?".join(map(re.escape, value[:cut].split("...")))
        if re.fullmatch(pattern, text):
            return True
    return False


def test_states_matches_elided_values():
    assert _states("68", "68, the unbiased f(k)")
    assert not _states("84", "68, the unbiased f(k)")
    elided = "Bounds(lower=0.14586..., upper=0.15)"
    assert _states("Bounds(lower=0.1458649, upper=0.15)", elided)
    assert not _states("Bounds(lower=0.1459, upper=0.15)", elided)


def test_library_example_holds():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    checks = []
    lines = []
    for line in block.splitlines():
        m = ARROW.match(line)
        if m:
            checks.append((m["expr"], m["value"]))
            line = f"_seen.append(repr({m['expr']}))"
        lines.append(line)
    namespace = {"_seen": []}
    exec(compile("\n".join(lines), str(README), "exec"), namespace)
    assert checks
    for (expr, value), text in zip(checks, namespace["_seen"], strict=True):
        assert _states(text, value), (expr, text, value)


def test_readme_has_five_cli_examples():
    commands = [command for command, _ in _cli_examples()]
    assert len(commands) == 5
    assert all(command.startswith("$ fpcount ") for command in commands)


@pytest.mark.parametrize(
    "command, stdout", _cli_examples(), ids=[c for c, _ in _cli_examples()]
)
def test_cli_example_prints_readme_output(command, stdout, capsys):
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == stdout
