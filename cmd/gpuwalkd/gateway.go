// Gateway mode: gpuwalkd -gateway -peers <urls> fronts a cluster of
// backend gpuwalkd nodes, routing each submission to the node that
// owns its ConfigHash on the consistent-hash ring and proxying reads,
// SSE streams and rolled-up metrics. See docs/CLUSTER.md.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"gpuwalk"
	"gpuwalk/internal/cluster"
)

// gatewayConfig carries the parsed flags relevant to gateway mode.
type gatewayConfig struct {
	addr       string
	peers      []string
	vnodes     int
	probeEvery time.Duration
	drainWait  time.Duration
	logFormat  string
	logLevel   string
	traceSpans int
}

// runGateway is gateway mode's main loop: membership + gateway +
// listener + graceful shutdown. Exit codes match backend mode (2 for
// flag/config errors, 1 for runtime failures).
func runGateway(cfg gatewayConfig, stdout, stderr io.Writer) int {
	logger, err := newLogger(stderr, cfg.logFormat, cfg.logLevel)
	if err != nil {
		fmt.Fprintf(stderr, "gpuwalkd: %v\n", err)
		return 2
	}
	if len(cfg.peers) == 0 {
		fmt.Fprintln(stderr, "gpuwalkd: -gateway requires -peers")
		return 2
	}
	member, err := cluster.NewMembership(cluster.MemberOptions{
		Peers:         cfg.peers,
		VNodes:        cfg.vnodes,
		ProbeInterval: cfg.probeEvery,
		Logger:        logger,
	})
	if err != nil {
		fmt.Fprintf(stderr, "gpuwalkd: %v\n", err)
		return 2
	}
	gw, err := cluster.NewGateway(cluster.GatewayOptions{
		Membership: member,
		KeyFunc:    newSpecKeys().key,
		Logger:     logger,
		SpanLimit:  cfg.traceSpans,
	})
	if err != nil {
		fmt.Fprintf(stderr, "gpuwalkd: %v\n", err)
		return 2
	}
	gw.Metrics().NewGauge("gateway_build_info",
		"Build metadata; the value is always 1.",
		"go_version", "model_version").
		With(runtime.Version(), gpuwalk.SimVersion).Set(1)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintf(stderr, "gpuwalkd: %v\n", err)
		return 1
	}
	member.Start()
	defer member.Close()

	httpSrv := &http.Server{Handler: gw.Handler()}
	fmt.Fprintf(stdout, "gpuwalkd: gateway listening on %s (%d peers, %d vnodes)\n",
		ln.Addr(), len(member.Peers()), cfg.vnodes)
	logger.Info("gateway listening", "addr", ln.Addr().String(),
		"peers", len(member.Peers()), "vnodes", cfg.vnodes,
		"model_version", gpuwalk.SimVersion)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	code := 0
	select {
	case <-ctx.Done():
		fmt.Fprintln(stdout, "gpuwalkd: gateway shutdown signal received")
		logger.Info("gateway shutdown signal received")
		shutCtx, cancel := context.WithTimeout(context.Background(), cfg.drainWait)
		_ = httpSrv.Shutdown(shutCtx)
		cancel()
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "gpuwalkd: %v\n", err)
			code = 1
		}
	}
	fmt.Fprintln(stdout, "gpuwalkd: gateway exiting")
	return code
}
