int f(int n) {
  buf = read(n);
  x = 0;
  if (n > 1) {
    x = 1;
  } else {
    x = buf;
  }
  i = 0;
  while (i < n) {
    i = i + 1;
    x = x + i;
  }
  use(x, buf);
  tmp = copy(buf, i);
  return x;
  y = 2;
}
