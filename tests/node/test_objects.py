"""Tests for engineering objects, clusters and capsules."""

import pytest

from repro.errors import NodeError
from repro.node import Capsule, Cluster, EngineeringObject, Ids


@pytest.fixture
def ids():
    return Ids()


def test_object_identity_and_state(ids):
    obj = EngineeringObject(ids, "doc", state={"text": "hi"}, state_size=64)
    assert obj.name == "doc"
    assert obj.state == {"text": "hi"}
    assert obj.state_size == 64
    assert obj.oid.startswith("obj-")


def test_object_state_size_validation(ids):
    with pytest.raises(NodeError):
        EngineeringObject(ids, "x", state_size=-1)


def test_object_operations(ids):
    obj = EngineeringObject(ids, "counter", state={"n": 0})
    obj.operation("incr", lambda caller, state, args: state.__setitem__(
        "n", state["n"] + args) or state["n"])
    obj.invoke_local("tester", "incr", 5)
    assert obj.state["n"] == 5
    assert obj.invocations == 1


def test_invoke_unknown_operation(ids):
    obj = EngineeringObject(ids, "x")
    with pytest.raises(NodeError):
        obj.invoke_local("tester", "missing", None)


def test_cluster_add_remove(ids):
    cluster = Cluster(ids, "c")
    obj = EngineeringObject(ids, "a")
    cluster.add(obj)
    assert obj.cluster is cluster
    assert len(cluster) == 1
    removed = cluster.remove(obj.oid)
    assert removed is obj
    assert obj.cluster is None
    assert len(cluster) == 0


def test_cluster_rejects_double_add(ids):
    c1, c2 = Cluster(ids), Cluster(ids)
    obj = EngineeringObject(ids, "a")
    c1.add(obj)
    with pytest.raises(NodeError):
        c2.add(obj)


def test_cluster_remove_missing(ids):
    cluster = Cluster(ids)
    with pytest.raises(NodeError):
        cluster.remove("obj-999999")


def test_cluster_state_size_sums_objects(ids):
    cluster = Cluster(ids)
    cluster.add(EngineeringObject(ids, "a", state_size=100))
    cluster.add(EngineeringObject(ids, "b", state_size=200))
    assert cluster.state_size == 300


def test_capsule_cluster_lifecycle(ids):
    capsule = Capsule(ids, "cap")
    cluster = Cluster(ids, "c")
    capsule.add_cluster(cluster)
    assert cluster.capsule is capsule
    removed = capsule.remove_cluster(cluster.cluster_id)
    assert removed is cluster
    assert cluster.capsule is None


def test_capsule_rejects_double_add(ids):
    cap1, cap2 = Capsule(ids), Capsule(ids)
    cluster = Cluster(ids)
    cap1.add_cluster(cluster)
    with pytest.raises(NodeError):
        cap2.add_cluster(cluster)


def test_capsule_remove_missing(ids):
    capsule = Capsule(ids)
    with pytest.raises(NodeError):
        capsule.remove_cluster("cluster-999999")


def test_capsule_find_object(ids):
    capsule = Capsule(ids)
    cluster = Cluster(ids)
    capsule.add_cluster(cluster)
    obj = EngineeringObject(ids, "target")
    cluster.add(obj)
    assert capsule.find_object(obj.oid) is obj
    assert capsule.find_object("obj-0") is None


def test_capsule_all_objects(ids):
    capsule = Capsule(ids)
    c1, c2 = Cluster(ids), Cluster(ids)
    capsule.add_cluster(c1)
    capsule.add_cluster(c2)
    c1.add(EngineeringObject(ids, "a"))
    c2.add(EngineeringObject(ids, "b"))
    assert sorted(o.name for o in capsule.all_objects()) == ["a", "b"]
