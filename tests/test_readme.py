"""The library quick start and the command-line examples in README.md run
as written."""

import pathlib
import re
import shlex

from vortexscatter import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    # the block prints the worst elastic unitarity defect of its mode table
    assert float(capsys.readouterr().out) < 1e-8


def test_readme_commands_run(tmp_path, monkeypatch):
    block = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(), re.S)[1]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [c for c in commands if c]
    assert commands and all(c[0] == "vortex-scatter" for c in commands)
    for i, argv in enumerate(commands):
        run_dir = tmp_path / str(i)
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert cli.main(argv[1:]) == cli.EXIT_OK, argv
        assert [p for p in run_dir.iterdir() if p.stat().st_size > 0], argv
