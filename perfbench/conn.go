package main

import (
	"net"
	"sync/atomic"
)

// connStats counts the socket traffic of one side of a wire run, summed
// over its connections. block is the time spent inside Read and Write:
// for a reader that includes waiting for the peer to send.
type connStats struct {
	writeBytes, reads, writes, block atomic.Int64
}

// countingConn is the traced run's net.Conn: it forwards to the socket
// and adds each call's bytes, count and duration to its side's stats.
type countingConn struct {
	net.Conn
	st *connStats
}

func (c *countingConn) Read(p []byte) (int, error) {
	t0 := now()
	n, err := c.Conn.Read(p)
	c.st.block.Add(now() - t0)
	c.st.reads.Add(1)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	t0 := now()
	n, err := c.Conn.Write(p)
	c.st.block.Add(now() - t0)
	c.st.writes.Add(1)
	c.st.writeBytes.Add(int64(n))
	return n, err
}

// countingListener hands fl.Serve server-side connections that count
// into st. It embeds the TCP listener, not net.Listener, so SetDeadline
// stays visible: fl.Serve asserts it at shutdown to stop accepting.
type countingListener struct {
	*net.TCPListener
	st *connStats
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.TCPListener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, st: l.st}, nil
}
