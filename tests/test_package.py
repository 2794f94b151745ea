import re
import shlex
from pathlib import Path

import pytest

import kanagg
from kanagg.cli import _parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    missing = [name for name in kanagg.__all__ if not hasattr(kanagg, name)]
    assert not missing
    assert len(set(kanagg.__all__)) == len(kanagg.__all__)


def test_star_import():
    namespace = {}
    exec("from kanagg import *", namespace)
    assert set(kanagg.__all__) <= set(namespace)


def test_readme_python_blocks_run(capsys):
    # the README's library code runs as written, so it cannot drift from the API
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_commands_parse():
    # every `kanagg ...` line of the README's code blocks names a verb and
    # flags the command has; nothing runs
    blocks = re.findall(r"^```\w*\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("kanagg ")]
    assert commands
    for argv in commands:
        try:
            _parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
