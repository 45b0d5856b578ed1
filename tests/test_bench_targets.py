"""The benchmark's traced run wraps library functions by name.

`wbbench/layers.py` lists (owner, attribute) pairs and its tracer looks each
one up with `owner.__dict__[attr]`. Renaming or deleting a listed library name
fails here, not only in a traced benchmark run.
"""

from pathlib import Path

WBBENCH = Path(__file__).resolve().parents[1] / "wbbench"


def test_every_traced_name_is_in_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(WBBENCH))
    import layers

    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in layers.targets(layers.Probe())
        if attr not in vars(owner)
    ]
    assert not missing, f"traced names missing from the library: {missing}"
