"""The documents stay in step with the request reader and the CLI parser."""

import argparse
import re
from pathlib import Path

from ampletori import cli, pipeline

ROOT = Path(__file__).resolve().parent.parent
FORMATS = (ROOT / "docs" / "formats.md").read_text()
README = (ROOT / "README.md").read_text()


def _option_strings(parser: argparse.ArgumentParser):
    for action in parser._actions:
        yield from action.option_strings
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _option_strings(sub)


def test_the_request_example_has_exactly_the_request_fields():
    section = FORMATS.split("## Pipeline request", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert tuple(re.findall(r'^  "(\w+)":', example, re.M)) == pipeline.REQUEST_KEYS


def test_every_cli_option_is_documented():
    docs = FORMATS + README
    missing = {
        opt
        for opt in _option_strings(cli.build_parser())
        if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", docs)
    }
    assert not missing, sorted(missing)
