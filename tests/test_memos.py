"""Every module memo is an `lru_cache` with the one bound.

`module_memos` finds each `lru_cache` an ampletori module holds, through its
`cache_info`, so a memo added later is found with no list to update.
`fresh_memos` installs empty copies at every name a module holds a memo by:
the history tests shrink every memo to one entry with it, and the tests of
one memo start that memo empty.
"""

import functools
import importlib
import pkgutil
import sys

import ampletori
from ampletori.places import STANDARD_TAGS
from ampletori.polynomials import MEMO_SIZE

# bounded below MEMO_SIZE: the ln 2 grids of the precision ladder, the nine tags
OWN_BOUNDS = {"intervals._ln2_grid": 32, "places.standard_tag": len(STANDARD_TAGS)}


def _holders() -> dict[int, tuple[object, list]]:
    """id(memo) -> (memo, the (module, attribute) pairs holding it)."""
    for info in pkgutil.iter_modules(ampletori.__path__):
        if info.name != "__main__":
            importlib.import_module(f"ampletori.{info.name}")
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] == "ampletori":
            for attr, obj in vars(module).items():
                if hasattr(obj, "cache_info"):
                    out.setdefault(id(obj), (obj, []))[1].append((module, attr))
    return out


def module_memos() -> dict[str, object]:
    """Every module memo, named by the module and name of what it memoizes."""
    return {
        f"{memo.__module__.removeprefix('ampletori.')}.{memo.__qualname__}": memo
        for memo, _ in _holders().values()
    }


def fresh_memos(monkeypatch, *memos, maxsize=None) -> None:
    """Install an empty copy of each memo given, or of every memo when none
    is, at each name a module holds it by: bounded at maxsize, or at the
    memo's own bound when maxsize is None."""
    chosen = {id(memo) for memo in memos}
    for memo, names in _holders().values():
        if memos and id(memo) not in chosen:
            continue
        fresh = functools.lru_cache(maxsize or memo.cache_info().maxsize)(memo.__wrapped__)
        for module, attr in names:
            monkeypatch.setattr(module, attr, fresh)


def test_every_module_memo_has_the_one_bound():
    memos = module_memos()
    # the finder sees the memos of each layer, the memoized EtaleAlgebra included
    assert {
        "polynomials.discriminant", "places.prime_places", "realsplit.root_disks",
        "matgroups._automorphisms", "pipeline._searched_units", "etale.EtaleAlgebra",
    } <= set(memos)
    bounds = {name: memo.cache_info().maxsize for name, memo in memos.items()}
    assert {name: b for name, b in bounds.items() if b != MEMO_SIZE} == OWN_BOUNDS


def test_fresh_memos_reaches_every_name_a_memo_is_held_by(monkeypatch):
    from ampletori import places, units

    assert units.prime_places is places.prime_places
    fresh_memos(monkeypatch, maxsize=1)
    assert units.prime_places is places.prime_places
    assert all(memo.cache_info() == (0, 0, 1, 0) for memo in module_memos().values())
