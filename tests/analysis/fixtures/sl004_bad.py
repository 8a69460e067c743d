"""SL004 fixture (bad): acquires with no release on failure paths."""


def hold_slot(env, resource):
    req = resource.request()
    yield req
    yield env.timeout(5.0)
    # Released only on the happy path: an exception above leaks the slot.
    resource.release(req)


def place_task(machine, task):
    machine.allocate(task.cores, task.memory_gb)
    run(task)
    machine.release(task.cores, task.memory_gb)


def run(task):
    pass


class Placer:
    """Hands the claim to a process that releases only on the happy
    path: an interrupt during the timeout leaks it."""

    def __init__(self, env):
        self.env = env

    def start(self, machine, task):
        machine.allocate(task.cores, task.memory_gb)
        self.env.process(self._hold(machine, task))

    def _hold(self, machine, task):
        yield self.env.timeout(task.work)
        machine.release(task.cores, task.memory_gb)
