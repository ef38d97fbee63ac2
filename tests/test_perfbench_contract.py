"""The benchmark in ``perfbench/`` wraps library functions by name
(``vars(owner)[attr]``): the untraced runs time ``TrainedDetector.alert_step``
for the ``step_p*`` samples, and ``--trace 1`` wraps every layer probe. A
refactor that renames or moves one of those attributes breaks the benchmark
without failing any library test, so each probe is checked here."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))

import layers  # noqa: E402


def test_every_probe_names_an_attribute_of_its_owner():
    probes = layers.stage_probes() + layers.layer_probes()
    missing = [f"{p.owner.__name__}.{p.attr}" for p in probes if p.attr not in vars(p.owner)]
    assert not missing
