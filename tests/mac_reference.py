"""The eager MAC: contention as it was before backoff events were queued lazily.

Each contender queues its own `mac.backoff` event through `Simulator.schedule`
when it starts waiting, and a freeze cancels it. This restates the design of
`git show 16decf3:src/vanetbench/mac.py` over NodeMac's contention methods;
`Channel._arm` has nothing to do, since no backoff event is ever deferred.
Every other method is the current one. The current design reserves for each
backoff the fire time and sequence number that its eager event gets here, so
both must write the same trace bytes: this module is the behavioural
reference for any change to how contention is scheduled.
"""

from vanetbench.mac import CONTEND, FROZEN, TX, Channel, NodeMac


def _begin_wait(self):
    channel = self.channel
    blocker = channel.busy_tx(self.node_id) if channel.active else None
    if blocker is not None:
        self.state = FROZEN
        blocker.waiters.append(self)
        return
    self.state = CONTEND
    channel.contenders[self.node_id] = self
    now = self.wait_started = self.sim.now
    # this operand order, as IEEE rounding makes it, decides same-slot ties
    end = self.backoff_end = now + self._difs + self.backoff_remaining * self._slot
    self._entry = self.sim.schedule(end, self._backoff_done, target="mac.backoff")


def medium_busy(self, t_busy: float, blocker):
    if self.backoff_end <= t_busy:
        return   # backoff hit zero this same instant: transmit (and collide)
    self.sim.cancel(self._entry)
    self._entry = None
    elapsed = t_busy - (self.wait_started + self._difs)
    if elapsed > 0:
        consumed = int(elapsed / self._slot + 1e-9)
        self.backoff_remaining = max(0, self.backoff_remaining - consumed)
    del self.channel.contenders[self.node_id]
    self.state = FROZEN
    if blocker is not None:
        blocker.waiters.append(self)


def _backoff_done(self):
    self._entry = None
    del self.channel.contenders[self.node_id]
    self.state = TX
    self.channel.transmit(self.node_id, self.queue[0])


def install(monkeypatch):
    """Run every NodeMac under the eager design until `monkeypatch` undoes it."""
    for name, method in (("_begin_wait", _begin_wait), ("resume_contention", _begin_wait),
                         ("medium_busy", medium_busy), ("_backoff_done", _backoff_done)):
        monkeypatch.setattr(NodeMac, name, method)
    monkeypatch.setattr(Channel, "_arm", lambda channel: None)
