package sweep

import "context"

// Collect runs a stateless sweep through Run and returns its results in
// index order — the shape most tests assert on.
func Collect[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return CollectWorker(ctx, p, n, nil, Stateless(fn))
}

// CollectWorker is Collect with worker-local state.
func CollectWorker[S, T any](ctx context.Context, p *Pool, n int, newState func() S, fn func(ctx context.Context, s S, i int) (T, error)) ([]T, error) {
	out := make([]T, 0, n)
	if err := Run(ctx, p, n, Options{}, newState, fn, func(_ int, v T) error {
		out = append(out, v)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Stateless adapts a job that needs no worker state to Run's signature.
func Stateless[T any](fn func(ctx context.Context, i int) (T, error)) func(context.Context, struct{}, int) (T, error) {
	return func(ctx context.Context, _ struct{}, i int) (T, error) { return fn(ctx, i) }
}
