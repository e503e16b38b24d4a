"""The README tour runs as written: its Python session and its command lines."""

import doctest
import json
import pathlib
import re
import shlex

from bigon.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(language):
    """The bodies of the README's fenced blocks in `language`, in order."""
    return re.findall(r"^```%s\n(.*?)^```$" % language, README.read_text(), re.M | re.S)


def run_python_tour():
    """Run every python block as one doctest, names carrying over; returns (failures, names)."""
    session = "\n".join(fenced_blocks("python"))
    test = doctest.DocTestParser().get_doctest(session, {}, "README", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test, clear_globs=False)
    return runner.failures, test.globs


def command_examples():
    """(argv, printed text) of each `$ bigon ...` line that shows its output."""
    examples = []
    for block in fenced_blocks("sh"):
        for example in block.strip().split("\n\n"):
            command, *output = example.splitlines()
            if command.startswith("$ bigon ") and output:
                examples.append((shlex.split(command)[2:], "\n".join(output) + "\n"))
    return examples


def test_the_python_tour_prints_what_it_shows():
    failures, names = run_python_tour()
    assert failures == 0
    assert {"square", "curve", "rep", "path"} <= set(names)


def test_the_command_lines_print_what_they_show(capsys, tmp_path, monkeypatch):
    _, names = run_python_tour()
    capsys.readouterr()
    # the files the command lines read are the tour's own surface, curve, representation and path
    for name, value in (("surface", "square"), ("curve", "curve"), ("rep", "rep"), ("path", "path")):
        (tmp_path / (name + ".json")).write_text(json.dumps(names[value].to_dict()))
    monkeypatch.chdir(tmp_path)
    examples = command_examples()
    assert len(examples) == 8
    for argv, printed in examples:
        code = main(argv)
        assert (code, *capsys.readouterr()) == (0, printed, ""), argv
