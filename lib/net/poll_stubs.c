/* poll(2) for the server's event loop.
 *
 * Unix.select cannot watch a descriptor numbered FD_SETSIZE (1024) or
 * above: the whole call fails with EINVAL.  A server holding a few
 * hundred connections in a process that also owns WAL files, snapshots
 * and client sockets crosses that line, so the loop waits in poll, which
 * has no ceiling.
 *
 * hyperion_net_poll(fds, flags, n, timeout_ms) watches fds[0..n-1].  On
 * entry flags[i] is the interest (bit 0 readable, bit 1 writable); on
 * return it is the readiness, with hang-up and error reported as both
 * readable and writable so the next read or write surfaces them.  The
 * wait runs with the runtime lock released, on a C copy of the set.
 * Returns the number of ready descriptors; 0 on timeout or EINTR.
 */
#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#define WANT_READ 1
#define WANT_WRITE 2

CAMLprim value hyperion_net_poll(value fds, value flags, value vn, value vtimeout)
{
  CAMLparam2(fds, flags);
  intnat n = Long_val(vn);
  int timeout = Int_val(vtimeout);
  struct pollfd local[64];
  struct pollfd *set = local;
  int r, err;
  intnat i;

  if (n < 0 || n > (intnat)Wosize_val(fds) || n > (intnat)Wosize_val(flags))
    caml_invalid_argument("Server.poll");
  if (n > 64) {
    set = malloc(n * sizeof *set);
    if (set == NULL) caml_raise_out_of_memory();
  }
  for (i = 0; i < n; i++) {
    intnat want = Long_val(Field(flags, i));
    set[i].fd = Int_val(Field(fds, i));
    set[i].events = ((want & WANT_READ) ? POLLIN : 0)
                    | ((want & WANT_WRITE) ? POLLOUT : 0);
    set[i].revents = 0;
  }
  caml_enter_blocking_section();
  r = poll(set, (nfds_t)n, timeout);
  err = errno;
  caml_leave_blocking_section();
  for (i = 0; i < n; i++) {
    short re = r > 0 ? set[i].revents : 0;
    intnat got = 0;
    if (re & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) got |= WANT_READ;
    if (re & (POLLOUT | POLLHUP | POLLERR)) got |= WANT_WRITE;
    Store_field(flags, i, Val_long(got));
  }
  if (set != local) free(set);
  if (r < 0) {
    if (err == EINTR) CAMLreturn(Val_int(0));
    caml_unix_error(err, "poll", Nothing);
  }
  CAMLreturn(Val_int(r));
}
