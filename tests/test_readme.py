"""README's Library and CLI examples run as written."""

from pathlib import Path
import re
import shlex

import numpy as np
import pytest

from ssdbcodi import cli

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def data_csv(tmp_path, monkeypatch):
    """The examples' data.csv, two labeled blobs and two outliers, in a
    working directory of its own."""
    rng = np.random.default_rng(3)
    lines = ["x,y,label"]
    for label, centre in (("a", (0.0, 0.0)), ("b", (6.0, 6.0))):
        lines += [f"{x},{y},{label}" for x, y in rng.normal(centre, 0.5, size=(40, 2))]
    lines += ["20.0,-20.0,o", "-15.0,25.0,o"]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def test_library_examples_run(data_csv, capsys):
    # the two blocks share one namespace: the second reads the first's ds,
    # labels and best
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].clusters.shape == (82,)
    assert (namespace["result"].clusters.tobytes()
            == namespace["run"](namespace["ds"], namespace["labels"],
                                namespace["params"]).clusters.tobytes())
    assert capsys.readouterr().out.count("\n") >= 2


def test_cli_examples_run(data_csv, capsys):
    # every `ssdbcodi ...` line of the sh blocks, continuation lines joined
    text = README.read_text(encoding="utf-8").replace("\\\n", "")
    commands = [shlex.split(line)[1:] for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                for line in block.splitlines() if line.startswith("ssdbcodi ")]
    assert {argv[0] for argv in commands} == set(cli.COMMANDS)
    for argv in commands:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv
