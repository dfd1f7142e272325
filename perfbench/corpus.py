"""Seeded corpus materialisation with a content-hashed cache.

The corpus comes from the deterministic generator in tests/synthcorpus.py
and is written as netpbm files, P4 and P5 alternating by file, so the
program reads both raw formats. Each cache entry is keyed by seed and
corpus kind and holds a manifest with the SHA-256 of every file plus the
reference results computed from the generated masks. A file that no longer
matches its manifest, or a generator whose output no longer matches the
pinned probe, stops the run instead of being measured.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

import reference

CACHE_DIR = ".perfbench-cache"
KEEP_ENTRIES = 16

SWEEP_PER_CATEGORY = 20
SERVE_PER_CATEGORY = 60
SERVE_QUERIES_PER_CATEGORY = 6
SERVE_VARIANT, SERVE_SEP, SERVE_SAMPLES = "circ_radial", 8, 24

# SHA-256 over the masks of make_corpus(samples=1, seed=0). If the generator
# changes, corpora of one seed stop being comparable across commits.
GENERATOR_PIN = "f5327f0a3077b38444231b51e1e4e30ebb552d4974fb88d170910e3343d067e6"


class CorpusError(Exception):
    """The generator or a cache entry is not what the benchmark was defined on."""


def _encode(mask: np.ndarray, raw_pgm: bool) -> bytes:
    h, w = mask.shape
    if raw_pgm:
        return f"P5\n{w} {h}\n255\n".encode() + (mask.astype(np.uint8) * 255).tobytes()
    return f"P4\n{w} {h}\n".encode() + np.packbits(mask, axis=1).tobytes()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _mask_digest(shapes) -> str:
    h = hashlib.sha256()
    for s in shapes:
        h.update(s.id.encode() + b"\0" + np.packbits(s.mask).tobytes())
    return h.hexdigest()


def check_generator() -> None:
    from synthcorpus import make_corpus

    got = _mask_digest(make_corpus(samples=1, seed=0))
    if got != GENERATOR_PIN:
        raise CorpusError(
            f"tests/synthcorpus.py output changed (probe {got[:16]}, pinned "
            f"{GENERATOR_PIN[:16]}); corpora are no longer comparable")


def _write(directory: Path, shapes, files: dict[str, str]) -> list[str]:
    directory.mkdir(parents=True)
    names = []
    for i, shape in enumerate(shapes):
        raw_pgm = i % 2 == 1
        name = shape.id + (".pgm" if raw_pgm else ".pbm")
        data = _encode(shape.mask, raw_pgm)
        (directory / name).write_bytes(data)
        files[f"{directory.name}/{name}"] = _sha(data)
        names.append(name)
    return names


def _in_file_order(shapes, names):
    # the program loads a directory sorted by file name
    return [s for _, s in sorted(zip(names, shapes), key=lambda p: p[0])]


def _build_base(entry: Path, seed: int) -> dict:
    from synthcorpus import make_corpus

    shapes = make_corpus(samples=SWEEP_PER_CATEGORY, seed=seed)
    files: dict[str, str] = {}
    names = _write(entry / "corpus", shapes, files)
    shapes = _in_file_order(shapes, names)
    geoms = [reference.geometry(s.mask) for s in shapes]
    ids = [s.id for s in shapes]
    cats = [s.category for s in shapes]
    return {
        "files": files,
        "sweep": reference.sweep_bounds(geoms, cats),
        "occlude": reference.occlusion_bounds(geoms, ids, cats, seed),
    }


def _build_serve(entry: Path, seed: int) -> dict:
    from synthcorpus import make_corpus

    per_cat = SERVE_PER_CATEGORY + SERVE_QUERIES_PER_CATEGORY
    shapes = make_corpus(samples=per_cat, seed=seed)
    # samples past SERVE_PER_CATEGORY are fresh shapes, never in the database
    db_shapes = [s for i, s in enumerate(shapes) if i % per_cat < SERVE_PER_CATEGORY]
    query_shapes = [s for i, s in enumerate(shapes) if i % per_cat >= SERVE_PER_CATEGORY]
    del shapes
    files: dict[str, str] = {}
    names = _write(entry / "corpus", db_shapes, files)
    db_shapes = _in_file_order(db_shapes, names)
    query_names = _write(entry / "queries", query_shapes, files)

    def vector(shape) -> list[int]:
        c, _ = reference.counts(reference.geometry(shape.mask), SERVE_VARIANT,
                                SERVE_SEP, SERVE_SAMPLES)
        return c.tolist()

    return {
        "files": files,
        "records": [[s.id, s.category, vector(s)] for s in db_shapes],
        "queries": {name: vector(s) for name, s in zip(query_names, query_shapes)},
    }


def _verify(entry: Path, manifest: dict) -> None:
    present = {f"{d.name}/{p.name}" for d in entry.iterdir() if d.is_dir() for p in d.iterdir()}
    if present != set(manifest["files"]):
        raise CorpusError(f"{entry}: files differ from the manifest; delete {CACHE_DIR}/")
    for rel, digest in manifest["files"].items():
        if _sha((entry / rel).read_bytes()) != digest:
            raise CorpusError(f"{entry / rel}: content hash differs from the manifest; "
                              f"delete {CACHE_DIR}/")


def corpus_hash(manifest: dict) -> str:
    return _sha(json.dumps(sorted(manifest["files"].items())).encode())


def materialise(root: Path, seed: int, kind: str) -> tuple[Path, dict]:
    """Cache entry directory and manifest for (seed, kind), built on first use."""
    check_generator()
    cache = root / CACHE_DIR
    layout = (SWEEP_PER_CATEGORY, SERVE_PER_CATEGORY, SERVE_QUERIES_PER_CATEGORY,
              SERVE_VARIANT, SERVE_SEP, SERVE_SAMPLES)
    entry = cache / f"{kind}-seed{seed}-{_sha(repr(layout).encode())[:8]}"
    manifest_path = entry / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("seed") != seed or manifest.get("kind") != kind:
            raise CorpusError(f"{manifest_path}: written for another seed or kind")
        _verify(entry, manifest)
        os.utime(entry)
        return entry, manifest

    if entry.exists():
        shutil.rmtree(entry)  # a build that did not finish left no manifest
    build = _build_base if kind == "base" else _build_serve
    print(f"perfbench: generating {kind} corpus for seed {seed}", file=sys.stderr)
    manifest = {"seed": seed, "kind": kind, "generator": GENERATOR_PIN, **build(entry, seed)}
    manifest_path.write_text(json.dumps(manifest))
    _evict(cache, keep=entry)
    return entry, manifest


def _evict(cache: Path, keep: Path) -> None:
    entries = sorted((p for p in cache.iterdir() if p.is_dir() and p != keep),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for old in entries[KEEP_ENTRIES - 1:]:
        shutil.rmtree(old)
