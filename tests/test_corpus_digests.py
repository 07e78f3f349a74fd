"""Every entry of the byte-identity corpus gives its recorded exit code and bytes.

Regenerate with `python tests/corpus_digests.py` after a change that moves
outputs on purpose, and list each moved entry with the change.
"""

import json

import corpus_digests


def test_corpus_is_the_seeded_draw():
    recorded = [{k: e[k] for k in ("name", "argv", "file")} for e in corpus_digests.load()]
    assert recorded == corpus_digests.draw_entries()


def test_every_corpus_entry_keeps_its_exit_code_and_bytes():
    moved = []
    for entry in corpus_digests.load():
        code, digest = corpus_digests.run_entry(entry)
        if (code, digest) != (entry["exit"], entry["sha256"]):
            run = f"{entry['name']} {' '.join(entry['argv'])} {json.dumps(entry['file'])}"
            moved.append(f"{run}: exit {code} (was {entry['exit']})")
    assert not moved, "moved:\n" + "\n".join(moved)
