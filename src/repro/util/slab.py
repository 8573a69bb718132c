"""Pinned shared-memory slabs: grown geometrically, attached once per reader.

Both process pools in this package move bulk bytes through
:mod:`multiprocessing.shared_memory` blocks that outlive one transfer:
the batch pool's input/output slabs (:mod:`repro.sat.batch`) and each
shard worker's checkpoint load slab (:mod:`repro.service.cluster`).
Creating and first-touching a fresh segment costs page faults on both
sides of the boundary every time, so the owner keeps one block per role
and only replaces it when a transfer outgrows it; readers keep their
mapping attached until the owner names a different block.

With fork-started readers the resource tracker is shared with the owner
(both pools start it before forking), so a reader's attach-time
registration is a harmless duplicate and the owner's ``unlink()``
performs the one unregister.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

__all__ = ["Attached", "attach_slab", "detach_slabs", "grow_slab", "release_slab"]


def grow_slab(current: Optional[shared_memory.SharedMemory],
              nbytes: int) -> shared_memory.SharedMemory:
    """``current`` if it holds ``nbytes``, else a fresh, larger block.

    Growth at least doubles the block (shared memory cannot be resized in
    place) and unlinks the outgrown one; a reader drops its stale mapping
    when the owner next names the new block.
    """
    if current is not None and current.size >= nbytes:
        return current
    size = max(nbytes, 2 * current.size if current is not None else 1)
    if current is not None:
        release_slab(current)
    return shared_memory.SharedMemory(create=True, size=size)


def release_slab(slab: shared_memory.SharedMemory) -> None:
    """Owner-side teardown: detach and unlink, tolerating a gone segment."""
    try:
        slab.close()
        slab.unlink()
    except OSError:
        pass


Attached = Dict[str, Tuple[str, shared_memory.SharedMemory]]


def attach_slab(attached: Attached, role: str,
                name: str) -> shared_memory.SharedMemory:
    """(Re)attach the reader's slab for ``role``, dropping a stale mapping."""
    current = attached.get(role)
    if current is not None and current[0] == name:
        return current[1]
    if current is not None:
        current[1].close()
    shm = shared_memory.SharedMemory(name=name)
    attached[role] = (name, shm)
    return shm


def detach_slabs(attached: Attached) -> None:
    """Reader-side teardown: close every attached mapping."""
    for _name, shm in attached.values():
        try:
            shm.close()
        except OSError:
            pass
    attached.clear()
