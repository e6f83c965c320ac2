"""Former home of the columnar shared-pass engine; intentionally empty.

The shared pass has one engine, the per-event loop
:func:`repro.machine.replay._shared_pass`.  The columnar twin that lived
here was deleted: no benchmark workload gained from it, and on a cold
20-layer YOLOv3 trace it was slower at ~1.7x the peak memory
(docs/PERFORMANCE.md §5).  The module stays, without code, because the
benchmark tracer (``perfbench/tracer.py``) still imports it by name;
its ``machine.replay_vec.shared_pass`` layer reports zero calls.
"""
