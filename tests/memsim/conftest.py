"""The memsim suites run the batched cascade on every machine.

Their toy geometries make outer levels barely larger than inner ones so
back-invalidations fire, which is exactly where production replays per
access instead (:func:`repro.memsim.batched.cascade_pays`); the batched
engine stays under test by lifting that threshold here.
"""

import pytest

from repro.memsim import batched

PRODUCTION_L2_RATIO = batched.MIN_CASCADE_L2_RATIO


@pytest.fixture(autouse=True, scope="package")
def cascade_on_every_machine():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batched, "MIN_CASCADE_L2_RATIO", 0)
        yield
