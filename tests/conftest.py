"""Shared fixtures: synthetic scenes and graph builders."""

from __future__ import annotations

import numpy as np
import pytest

from satadjust.adjust import ObservationGraph, assemble
from satadjust.rpc import GroundPoint
from satadjust.synth import SyntheticScene, gen_scene
from satadjust.tracks import Track


def scene_tracks(scene: SyntheticScene) -> list[Track]:
    """One track per scene point, observations keyed by image id; track
    ids are point indices, as GCPs refer to them."""
    tracks = []
    for j, per_image in enumerate(scene.true_observations):
        obs = {scene.images[i].image_id: p for i, p in per_image.items()}
        tracks.append(Track(observations=obs, id=j))
    return tracks


def scene_graph(
    scene: SyntheticScene,
    gcps: dict[int, GroundPoint] | None = None,
) -> ObservationGraph:
    """Assemble an observation graph from a scene's true observations."""
    images = [(img.image_id, img.rpc) for img in scene.images]
    return assemble(images, scene_tracks(scene), gcps=gcps)


@pytest.fixture(scope="session")
def small_scene() -> SyntheticScene:
    """Five images, 40 points, moderate bias and noise. Shared read-only."""
    return gen_scene(5, 40, 12.0, 0.1, seed=1234)


@pytest.fixture(scope="session")
def rendered_scene() -> SyntheticScene:
    """Rendered stereo-friendly scene for matching tests (small footprint)."""
    return gen_scene(2, 60, 8.0, 0.0, seed=321, render=True,
                     half_extent_m=400.0)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(2718)
