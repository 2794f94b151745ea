import re
from pathlib import Path

import kanagg

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
