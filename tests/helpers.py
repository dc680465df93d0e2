"""Shared test helpers: engineered deadlock scenarios.

``stall_endpoint`` manufactures the paper's detection condition at one
node: the input queue is full of non-terminating requests, the output
queue is full, and the (sole relevant) injection channel is occupied by
a long packet so nothing drains — exactly the state from which DR must
deflect and PR must rescue.
"""

from __future__ import annotations

from repro import SimConfig
from repro.protocol.message import Message
from repro.sim.engine import Engine


def build_engine(**kwargs) -> Engine:
    defaults = dict(dims=(4, 4), pattern="PAT721", load=0.0, seed=9)
    defaults.update(kwargs)
    return Engine(SimConfig(**defaults))


def record_transactions(engine: Engine, wrap=lambda txn: txn) -> list:
    """The transactions whose roots reach an NI from now on, in order.

    The traffic sources keep no list themselves (a long run would hold
    every finished transaction alive); tests that inspect finished
    transactions record them through this hook instead.  ``wrap`` is
    what to keep of each (``weakref.ref`` to not keep it alive).
    """
    seen: list = []
    last = None
    for ni in engine.interfaces:
        def enqueue_root(root, _enqueue=ni.enqueue_root) -> None:
            nonlocal last
            # a multi-root transaction enqueues its roots back to back
            if root.transaction.uid != last:
                last = root.transaction.uid
                seen.append(wrap(root.transaction))
            _enqueue(root)

        ni.enqueue_root = enqueue_root
    return seen


def deliver_direct(engine: Engine, node: int, msg) -> None:
    """Place a message straight into a node's input queue."""
    cls = engine.scheme.queue_class_of(msg.mtype)
    engine.interfaces[node].in_bank.queue(cls).push(msg)


def block_injection(engine: Engine, node: int, queue_cls: int, size: int = 2000):
    """Occupy one injection channel with a very long packet."""
    mtype = engine.protocol.types[0]
    blocker = Message(mtype, src=node, dst=(node + 1) % engine.topology.num_nodes,
                      size=size)
    blocker.vc_class = engine.scheme.vc_class_of(mtype)
    chan = engine.fabric.injection_channel(node, queue_cls)
    engine.fabric.start_injection(chan, blocker, engine.now)
    return blocker


def stall_endpoint(engine: Engine, node: int, make_txn, n_requests: int | None = None):
    """Drive ``node`` into the endpoint-deadlock detection condition.

    ``make_txn(i)`` must return a transaction whose root is a
    non-terminating request destined to ``node``.  Returns the list of
    stuffed root messages.
    """
    scheme = engine.scheme
    ni = engine.interfaces[node]
    roots = []
    req_cls = None
    # Fill the input queue with arrived, unconsumed requests.
    i = 0
    while True:
        txn = make_txn(i)
        root = txn.root
        req_cls = scheme.queue_class_of(root.mtype)
        q = ni.in_bank.queue(req_cls)
        if q.free_slots <= 0 or (n_requests is not None and i >= n_requests):
            break
        root.vc_class = scheme.vc_class_of(root.mtype)
        q.push(root)
        roots.append(root)
        i += 1
    # Fill the output queue the head's subordinates would need.
    sub_type = roots[0].continuation[0].mtype
    out_cls = scheme.queue_class_of(sub_type)
    out_q = ni.out_bank.queue(out_cls)
    block_injection(engine, node, out_cls)
    while out_q.free_slots > 0:
        filler = Message(sub_type, src=node, dst=(node + 2) % engine.topology.num_nodes)
        filler.vc_class = scheme.vc_class_of(sub_type)
        out_q.push(filler)
    return roots
