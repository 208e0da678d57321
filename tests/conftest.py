import sys

import numpy as np
import pytest

from motionfields import build_instance, fourier


@pytest.fixture(scope="session")
def m2():
    return build_instance("M2")


@pytest.fixture(scope="session")
def m3():
    return build_instance("M3")


@pytest.fixture(scope="session")
def m2xm2():
    return build_instance("M2xM2")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def patch_everywhere(monkeypatch):
    """``patch(fn, new)`` sets ``new`` in every motionfields module holding ``fn``.

    A name imported from another module is a second reference, which a
    patch of the defining module alone would miss.  Returns the names of
    the modules patched.
    """

    def patch(fn, new):
        held = []
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "motionfields":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, new)
                    held.append(name)
        return held

    return patch


@pytest.fixture()
def jump_at(patch_everywhere):
    """``jump(H, value)`` makes ``fourier.pi_family`` add ``value`` to the block of the flat point H.

    The field is poisoned where a run forms it, so every reading that holds
    H sees the jump and no other does.
    """
    form = fourier.pi_family

    def jump(H, value):
        def poisoned(f, pair, basis, Hs):
            rows, cols, block = form(f, pair, basis, Hs)
            for p, h in enumerate(Hs):
                if tuple(h) == H:
                    block[p] += value
            return rows, cols, block

        patch_everywhere(form, poisoned)

    return jump
