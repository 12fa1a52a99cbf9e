"""Benchmark workloads and the run configuration each one feeds `ksdg run`.

A workload is a preset on a fixed mesh with CSV and VTK output on.  The
seed only changes the initial data: seed 0 (the default) leaves the
preset untouched, any other seed rescales each term's amplitude and
shifts its centre by a few percent.  The jittered terms are written into
the configuration text, so the program reads them like any user input.
"""

import dataclasses
import random

DEFAULT_SEED = 0

#: Relative amplitude jitter and absolute centre shift (unit-square domain)
#: for non-default seeds.
AMPLITUDE_JITTER = 0.02
CENTRE_JITTER = 0.01


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    pattern: str
    n: int
    # None keeps the preset horizon
    t_end: str = None
    # snapshot times written into [output]; None keeps the preset's
    snapshot_times: str = None


# Why each workload exists is in README.md next to this file.
WORKLOADS = {w.name: w for w in (
    # the paper's single-bulge collapse to the preset horizon, 100 steps
    Workload(name="collapse", preset="one_bulge", pattern="mesh1", n=64),
    # three merging bulges, elliptic v-step, 1000 steps
    Workload(name="merge-elliptic", preset="three_bulges", pattern="mesh1",
             n=16),
    # second mesh family, a snapshot at every step
    Workload(name="fine-snapshots", preset="one_bulge", pattern="mesh2",
             n=128, t_end="3e-6", snapshot_times="0 1e-6 2e-6 3e-6"),
)}


def _jitter(terms, rng):
    out = []
    for term in terms:
        changes = {"amplitude": term.amplitude
                   * (1.0 + rng.uniform(-AMPLITUDE_JITTER, AMPLITUDE_JITTER))}
        if hasattr(term, "x0"):
            changes["x0"] = term.x0 + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER)
            changes["y0"] = term.y0 + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER)
        out.append(dataclasses.replace(term, **changes))
    return tuple(out)


def config_text(workload, seed, csv_path, vtk_dir):
    """Configuration file text for one run of ``workload`` at ``seed``."""
    from ksdg.config import format_terms, load_config

    lines = ["[mesh]", "pattern = %s" % workload.pattern,
             "n = %d" % workload.n, ""]
    if workload.t_end is not None:
        lines += ["[params]", "t_end = %s" % workload.t_end, ""]
    lines += ["[initial]", "preset = %s" % workload.preset]
    if seed != DEFAULT_SEED:
        preset = load_config("[initial]\npreset = %s\n" % workload.preset)
        rng = random.Random(seed)
        lines.append("u0 = %s" % format_terms(_jitter(preset.u0_terms, rng)))
        if preset.params.tau:
            lines.append("v0 = %s"
                         % format_terms(_jitter(preset.v0_terms, rng)))
    lines += ["", "[output]", "csv = %s" % csv_path, "vtk_dir = %s" % vtk_dir]
    if workload.snapshot_times is not None:
        lines.append("snapshot_times = %s" % workload.snapshot_times)
    return "\n".join(lines) + "\n"
