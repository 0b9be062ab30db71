"""Shared fixtures: checkpoint files taken apart and put back together, and
the header and manifest defects every checkpoint loader must reject; and the
hypothesis profile every property runs under."""

import json
import math

import pytest
from hypothesis import Phase, settings

# No explain phase: where every example of a property fails, its reruns took
# the process past 7 GB.
settings.register_profile("tripletrec", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("tripletrec")


def split_checkpoint(blob: bytes):
    """A checkpoint's bytes as (header, [(manifest entry, tensor bytes)])."""
    nl = blob.find(b"\n")
    header = json.loads(blob[:nl])
    sections, offset = [], nl + 1
    for entry in header["tensors"]:
        n = 8 * math.prod(entry["shape"])
        sections.append((entry, blob[offset : offset + n]))
        offset += n
    return header, sections


def join_checkpoint(header: dict, sections) -> bytes:
    """Inverse of split_checkpoint; the header's manifest is written as is."""
    return (
        json.dumps(header, sort_keys=True).encode()
        + b"\n"
        + b"".join(data for _, data in sections)
    )


def _unknown_config_key(header, sections):
    header["config"]["momentum"] = 0.9
    return sections


def _missing_rng(header, sections):
    del header["rng"]
    return sections


def _tower_dropout_differs(header, sections):
    # a current header whose tower still states a dropout, other than the config's
    header["config"]["user_tower"]["dropout_p"] = header["config"]["dropout_p"] + 0.1
    return sections


def _negative_rng_seed(header, sections):
    header["rng"]["seed"] = -1
    return sections


def _format_version_1(header, sections):
    # a format 1 header: it also held the epoch count and config.eval_every
    header.update(format_version=1, epoch=len(header["loss_history"]))
    header["config"]["eval_every"] = 0
    return sections


def _format_version_2(header, sections):
    # a format 2 header: each tower also held the config's dropout_p
    header["format_version"] = 2
    for tower in ("user_tower", "item_tower"):
        header["config"][tower]["dropout_p"] = header["config"]["dropout_p"]
    return sections


def _format_version_3(header, sections):
    # a format 3 header: each tower also stated that its hidden layers normalize
    header["format_version"] = 3
    for tower in ("user_tower", "item_tower"):
        header["config"][tower]["normalize"] = True
    return sections


def _omitted_tensor(header, sections):
    return [s for s in sections if s[0]["name"] != "user.w0"]


def _duplicated_tensor(header, sections):
    return sections + sections[-1:]


def _swapped_tensors(header, sections):
    # gain and shift of one layer share a shape: only the order tells them apart
    names = [entry["name"] for entry, _ in sections]
    a, b = names.index("item.gain0"), names.index("item.shift0")
    sections = list(sections)
    sections[a], sections[b] = sections[b], sections[a]
    return sections


DEFECTS = {
    "unknown-config-key": _unknown_config_key,
    "missing-rng": _missing_rng,
    "tower-dropout-differs": _tower_dropout_differs,
    "negative-rng-seed": _negative_rng_seed,
    "format-version-1": _format_version_1,
    "format-version-2": _format_version_2,
    "format-version-3": _format_version_3,
    "omitted-tensor": _omitted_tensor,
    "duplicated-tensor": _duplicated_tensor,
    "swapped-tensors": _swapped_tensors,
}


@pytest.fixture(scope="session")
def checkpoint_parts():
    """(split, join) for editing checkpoint files byte for byte."""
    return split_checkpoint, join_checkpoint


@pytest.fixture(params=sorted(DEFECTS))
def break_checkpoint(request):
    """Rewrites the checkpoint at a path with one defect, its bytes and its
    manifest kept consistent with each other."""

    def apply(path):
        header, sections = split_checkpoint(path.read_bytes())
        sections = DEFECTS[request.param](header, sections)
        header["tensors"] = [entry for entry, _ in sections]
        path.write_bytes(join_checkpoint(header, sections))

    return apply
