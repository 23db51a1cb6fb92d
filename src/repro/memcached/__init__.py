"""In-process model of Memcached (Section II-A of the paper).

The model reproduces the parts of Memcached 1.4 that ElMem's migration
machinery manipulates:

- memory divided into 1 MB **pages**, grouped into **slab classes**, each
  class storing items of a bounded size range in fixed-size chunks;
- within a class, items kept on a doubly-linked list in **MRU order**, with
  O(1) LRU eviction by deleting the list tail;
- per-item most-recently-used **access timestamps**;
- the paper's two custom commands: a *timestamp dump* of a slab's MRU list
  and a *batch import* that installs migrated items while evicting colder
  local items (Section V-A1).
"""
