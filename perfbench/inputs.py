"""Seeded inputs, generated from ``repro.workloads`` at run time.

Nothing here is committed data: every program is drawn from the program's
own generators with a ``random.Random`` seeded by a string built from the
workload seed, so the same ``--seed`` gives the same inputs on any machine
and in any process (string seeds do not depend on ``PYTHONHASHSEED``).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

#: ``(name, source)`` — the only thing the program under test ever receives.
Item = Tuple[str, str]

#: Generator sizes.  Program ``i`` of a stream takes its family, walker
#: count, depth and aliasing from fixed strata cycling with ``i``, and only
#: its generator seed from the rng, so every seed draws programs of the same
#: size profile and a figure taken over a stream does not depend on which
#: sizes one seed happened to draw.  Depths below 4 are left out because the
#: ``list`` family then walks past the end of its list and the *sequential*
#: program dereferences nil, which would be an input's fault, not the
#: program's.
PROCEDURES = (1, 2, 3, 4)
DEPTHS = (4, 5, 6, 7)
ALIASING = (0.1, 0.3, 0.5)


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(part) for part in parts))


def named_items(depth: int = 4) -> List[Item]:
    """The paper's ten named workloads."""
    from repro.workloads import WORKLOADS, source

    return [(name, source(name, depth=depth)) for name in WORKLOADS]


def generated_item(rng: random.Random, index: int) -> Item:
    """Program ``index`` of a stratified stream; its generator seed comes from ``rng``."""
    from repro.workloads import FAMILIES, GeneratorConfig, generate_scenario

    strata = (len(FAMILIES), len(PROCEDURES), len(DEPTHS), len(ALIASING))
    position = []
    for size in strata:
        position.append(index % size)
        index //= size
    family, procedures, depth, aliasing = position
    config = GeneratorConfig(
        family=FAMILIES[family],
        procedures=PROCEDURES[procedures],
        depth=DEPTHS[depth],
        aliasing=ALIASING[aliasing],
    )
    scenario = generate_scenario(rng.randrange(1 << 31), config)
    return scenario.name, scenario.source


def population(rng: random.Random, start: int, count: int) -> List[Item]:
    """Programs ``start`` to ``start + count - 1`` of a stratified stream."""
    return [generated_item(rng, index) for index in range(start, start + count)]


def fresh_programs(rng: random.Random, seen: set) -> Iterator[Item]:
    """An endless stratified stream of programs whose sources are not in ``seen``."""
    index = 0
    while True:
        name, text = generated_item(rng, index)
        index += 1
        if text in seen:
            continue
        seen.add(text)
        yield name, text


def edit_chains(rng: random.Random, procedures: int, steps: int) -> Iterator[Tuple[str, str, str]]:
    """An endless stream of ``(name, old, new)`` edit steps.

    Each chain starts from a fresh ``make_edit_bench_scenario`` program and
    applies ``steps`` edits from one ``generate_edit_script``, one at a
    time, so every request's old side is the previous request's new side.
    """
    from repro.workloads import EditScript, apply_edit_script, generate_edit_script, make_edit_bench_scenario

    chain = 0
    while True:
        base = make_edit_bench_scenario(procedures, seed=rng.randrange(1 << 31))
        script = generate_edit_script(base.source, rng.randrange(1 << 31), edits=steps)
        old = base.source
        for index, step in enumerate(script.steps):
            new = apply_edit_script(old, EditScript(seed=script.seed, steps=(step,)))
            yield f"{base.name}_c{chain}_e{index}", old, new
            old = new
        chain += 1
