"""The committed CLI transcript replays byte for byte (see `record_transcript`)."""

import json

from support import seeded

from record_transcript import TRANSCRIPT, run


def _lines():
    raw = TRANSCRIPT.read_bytes()
    assert len(raw) < 2**20
    return [json.loads(line) for line in raw.decode("utf-8").splitlines()]


def test_the_committed_transcript_replays_unchanged(tmp_path):
    recorded = _lines()
    assert len(recorded) > 100
    changed = []
    for i, line in enumerate(recorded):
        where = tmp_path / str(i)
        where.mkdir()
        if run(line["argv"], line["files"], where) != line:
            changed.append((i + 1, line["argv"]))
    assert changed == []


def test_a_one_character_change_to_a_recorded_reply_is_seen(tmp_path):
    rng = seeded(8)
    replies = [line for line in _lines() if line["stdout"] or line["stderr"]]
    for k in range(5):
        line = dict(rng.choice(replies))
        stream = "stdout" if line["stdout"] else "stderr"
        text = line[stream]
        at = rng.randrange(len(text))
        line[stream] = text[:at] + ("x" if text[at] != "x" else "y") + text[at + 1 :]
        where = tmp_path / str(k)
        where.mkdir()
        assert run(line["argv"], line["files"], where) != line
